// Asynccrowd: resolve two KBs through the HTTP session API, the way a
// real crowdsourcing frontend would — no blocking Asker anywhere.
//
// The example starts an in-process remp-server, creates a session over
// the quickstart books dataset (shipped as TSV, like an external client
// would), and then plays an asynchronous crowd: each published batch is
// answered by simulated workers in reverse order, so answers always
// arrive out of order. Halfway through, the session is snapshotted,
// deleted from the server and restored from the snapshot — the process-
// restart drill — before the crowd finishes the job.
//
//	go run ./examples/asynccrowd
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"strings"

	"repro/internal/kb"
	"repro/internal/server"
	"repro/internal/session"
	"repro/remp"
)

func main() {
	log.SetFlags(0)
	k1, k2, gold := buildBooks()

	// Serve the session API from this process; an external client only
	// needs the TSV wire form of the KBs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		log.Fatal(http.Serve(ln, server.New().Handler()))
	}()
	client := server.NewClient("http://" + ln.Addr().String())

	var tsv1, tsv2 strings.Builder
	if err := k1.WriteTSV(&tsv1); err != nil {
		log.Fatal(err)
	}
	if err := k2.WriteTSV(&tsv2); err != nil {
		log.Fatal(err)
	}
	var goldNames [][2]string
	for _, m := range gold.Matches() {
		goldNames = append(goldNames, [2]string{k1.EntityName(m.U1), k2.EntityName(m.U2)})
	}

	info, err := client.CreateSession(server.CreateRequest{
		KB1TSV: tsv1.String(), KB2TSV: tsv2.String(), Gold: goldNames,
		Options: server.OptionsDTO{Mu: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %s created, %d questions published\n", info.ID, len(info.Batch))

	// A small simulated worker pool answers questions with 5% error.
	rng := rand.New(rand.NewSource(7))
	answer := func(q server.QuestionDTO) server.AnswerDTO {
		p, err := session.ParseQuestionID(q.ID)
		if err != nil {
			log.Fatal(err)
		}
		labels := make([]remp.Label, 3)
		for w := range labels {
			truth := gold.IsMatch(p)
			if rng.Float64() < 0.05 {
				truth = !truth
			}
			labels[w] = remp.Label{WorkerID: w, Quality: 0.95, IsMatch: truth}
		}
		return server.AnswerDTO{ID: q.ID, Labels: labels}
	}

	snapshotted := false
	for info.State != string(remp.SessionDone) {
		batch := info.Batch
		fmt.Printf("loop %d: answering %d questions (reverse order)\n", info.Loops, len(batch))
		for i := len(batch) - 1; i >= 0; i-- {
			posted, err := client.PostAnswers(info.ID, []server.AnswerDTO{answer(batch[i])})
			if err != nil {
				log.Fatal(err)
			}
			info = &posted.SessionInfo
		}
		if !snapshotted && info.State != string(remp.SessionDone) {
			// Restart drill: persist the session, drop it, restore it.
			snapshotted = true
			snap, err := client.Snapshot(info.ID)
			if err != nil {
				log.Fatal(err)
			}
			if err := client.Delete(info.ID); err != nil {
				log.Fatal(err)
			}
			if info, err = client.Restore(snap); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("snapshotted, deleted and restored session %s at %d questions\n",
				info.ID, info.Questions)
		}
	}

	res, err := client.Result(info.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresolved %d matches with %d crowd questions in %d loops\n",
		len(res.Matches), res.Questions, res.Loops)
	if res.PRF != nil {
		fmt.Printf("precision %.0f%%  recall %.0f%%  F1 %.0f%%\n",
			100*res.PRF.Precision, 100*res.PRF.Recall, 100*res.PRF.F1)
	}
}

// buildBooks is the quickstart fixture: eight authors and their books in
// two vocabularies.
func buildBooks() (*kb.KB, *kb.KB, *remp.Gold) {
	k1 := remp.NewKB("library")
	k2 := remp.NewKB("catalog")
	name1 := k1.AddAttr("name")
	name2 := k2.AddAttr("label")
	wrote1 := k1.AddRel("wrote")
	wrote2 := k2.AddRel("authorOf")

	authors := []string{
		"toni morrison", "gabriel garcia marquez", "virginia woolf",
		"james baldwin", "ursula le guin", "jorge luis borges",
		"chinua achebe", "clarice lispector",
	}
	books := []string{
		"beloved", "one hundred years of solitude", "to the lighthouse",
		"go tell it on the mountain", "the left hand of darkness",
		"ficciones", "things fall apart", "the hour of the star",
	}

	var gold []remp.Pair
	for i := range authors {
		a1 := k1.AddEntity("lib:author/" + authors[i])
		a2 := k2.AddEntity("cat:person/" + authors[i])
		k1.SetLabel(a1, authors[i])
		k2.SetLabel(a2, authors[i])
		k1.AddAttrTriple(a1, name1, authors[i])
		k2.AddAttrTriple(a2, name2, authors[i])
		gold = append(gold, remp.Pair{U1: a1, U2: a2})

		b1 := k1.AddEntity("lib:book/" + books[i])
		b2 := k2.AddEntity("cat:work/" + books[i])
		k1.SetLabel(b1, books[i])
		k2.SetLabel(b2, books[i])
		k1.AddAttrTriple(b1, name1, books[i])
		k2.AddAttrTriple(b2, name2, books[i])
		k1.AddRelTriple(a1, wrote1, b1)
		k2.AddRelTriple(a2, wrote2, b2)
		gold = append(gold, remp.Pair{U1: b1, U2: b2})
	}
	return k1, k2, remp.NewGold(gold)
}

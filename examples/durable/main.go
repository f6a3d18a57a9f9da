// Durable: survive a server crash without losing a single answered
// question.
//
// The example runs a remp-server over a disk store, creates a session
// on the built-in books dataset and answers its first batch — each
// answer is fsync'd to the session's answer log before the HTTP
// response. Then the server is abandoned without any shutdown (the
// process-crash stand-in), a brand-new server is opened over the same
// data directory, and the session comes back under its original ID at
// the exact question count it had reached. The crowd finishes the job
// against the recovered session.
//
//	go run ./examples/durable
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"repro/internal/datasets"
	"repro/internal/server"
	"repro/internal/session"
	"repro/remp"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "remp-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// First incarnation: a server journaling into the disk store.
	client, stop := serve(dir)
	info, err := client.CreateSession(server.CreateRequest{
		Dataset: "books", Seed: 1, Options: server.OptionsDTO{Mu: 5},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %s created on the books dataset, %d questions published\n", info.ID, len(info.Batch))

	// The example plays an accurate crowd from the dataset's own gold
	// standard (same name and seed the server used).
	gold := datasets.Books(1).Gold
	for _, q := range info.Batch {
		posted, err := client.PostAnswers(info.ID, []server.AnswerDTO{answer(gold, q)})
		if err != nil {
			log.Fatal(err)
		}
		info = &posted.SessionInfo
	}
	fmt.Printf("answered the first batch: %d questions into the answer log\n", info.Questions)

	// Crash: no drain, no goodbye. Acknowledged answers are already
	// durable, so nothing answered is lost.
	stop()
	fmt.Println("server gone (no shutdown, like a kill -9)")

	// Second incarnation over the same data directory: the session is
	// recovered by replaying its answer log through the pipeline.
	client, stop = serve(dir)
	defer stop()
	recovered, err := client.Batch(info.ID)
	if err != nil {
		log.Fatalf("session %s did not survive the restart: %v", info.ID, err)
	}
	fmt.Printf("session %s recovered at %d questions, %d still open\n",
		recovered.ID, recovered.Questions, len(recovered.Batch))

	for recovered.State != string(remp.SessionDone) {
		if len(recovered.Batch) == 0 {
			log.Fatal("recovered session stalled")
		}
		for _, q := range recovered.Batch {
			posted, err := client.PostAnswers(recovered.ID, []server.AnswerDTO{answer(gold, q)})
			if err != nil {
				log.Fatal(err)
			}
			recovered = &posted.SessionInfo
		}
	}
	res, err := client.Result(recovered.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresolved %d matches with %d crowd questions in %d loops — across a crash\n",
		len(res.Matches), res.Questions, res.Loops)
	if res.PRF != nil {
		fmt.Printf("precision %.0f%%  recall %.0f%%  F1 %.0f%%\n",
			100*res.PRF.Precision, 100*res.PRF.Recall, 100*res.PRF.F1)
	}
}

// serve starts a disk-store server on a loopback port and returns a
// client plus a stop function that just drops the listener — no drain,
// no store close — so recovery has real work to do.
func serve(dir string) (*server.Client, func()) {
	store, err := session.NewDiskStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	srv, recovered, err := server.NewServer(server.Config{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	if len(recovered) > 0 {
		fmt.Printf("recovered sessions: %v\n", recovered)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	return server.NewClient("http://" + ln.Addr().String()), func() { ln.Close() }
}

func answer(gold *remp.Gold, q server.QuestionDTO) server.AnswerDTO {
	p, err := session.ParseQuestionID(q.ID)
	if err != nil {
		log.Fatal(err)
	}
	return server.AnswerDTO{ID: q.ID, Labels: []remp.Label{
		{WorkerID: 0, Quality: 0.97, IsMatch: gold.IsMatch(p)},
	}}
}

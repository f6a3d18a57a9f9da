package ergraph

import (
	"testing"

	"repro/internal/kb"
	"repro/internal/pair"
)

// figure1KBs reproduces the paper's Figure 1 fragment: Tim directs two
// movies in each KB, Joan/John act in them, Joan was born in NYC.
func figure1KBs() (*kb.KB, *kb.KB, map[string]pair.Pair) {
	k1 := kb.New("yago")
	k2 := kb.New("dbpedia")
	e := func(k *kb.KB, n string) kb.EntityID { return k.AddEntity(n) }

	yTim, dTim := e(k1, "y:Tim"), e(k2, "d:Tim")
	yJoan, dJoan := e(k1, "y:Joan"), e(k2, "d:Joan")
	yJohn, dJohn := e(k1, "y:John"), e(k2, "d:John")
	yCradle, dCradle := e(k1, "y:Cradle"), e(k2, "d:Cradle")
	yPlayer, dPlayer := e(k1, "y:Player"), e(k2, "d:Player")
	yNYC, dNYC := e(k1, "y:NYC"), e(k2, "d:NYC")

	dir1, dir2 := k1.AddRel("directedBy"), k2.AddRel("directedBy")
	act1, act2 := k1.AddRel("actedIn"), k2.AddRel("actedIn")
	born1, born2 := k1.AddRel("wasBornIn"), k2.AddRel("birthPlace")

	k1.AddRelTriple(yCradle, dir1, yTim)
	k1.AddRelTriple(yPlayer, dir1, yTim)
	k2.AddRelTriple(dCradle, dir2, dTim)
	k2.AddRelTriple(dPlayer, dir2, dTim)
	k1.AddRelTriple(yJoan, act1, yCradle)
	k1.AddRelTriple(yJohn, act1, yPlayer)
	k2.AddRelTriple(dJoan, act2, dCradle)
	k2.AddRelTriple(dJohn, act2, dPlayer)
	k1.AddRelTriple(yJoan, born1, yNYC)
	k2.AddRelTriple(dJoan, born2, dNYC)

	ps := map[string]pair.Pair{
		"tim":    {U1: yTim, U2: dTim},
		"joan":   {U1: yJoan, U2: dJoan},
		"john":   {U1: yJohn, U2: dJohn},
		"cradle": {U1: yCradle, U2: dCradle},
		"player": {U1: yPlayer, U2: dPlayer},
		"cp":     {U1: yCradle, U2: dPlayer},
		"nyc":    {U1: yNYC, U2: dNYC},
	}
	return k1, k2, ps
}

func buildFig1() (*Graph, map[string]pair.Pair) {
	k1, k2, ps := figure1KBs()
	vertices := []pair.Pair{ps["tim"], ps["joan"], ps["john"], ps["cradle"], ps["player"], ps["cp"], ps["nyc"]}
	return Build(k1, k2, vertices), ps
}

// outEdges and inEdges read p's rows back as edges, in row order.
func outEdges(g *Graph, p pair.Pair) []oracleEdge {
	i := g.IndexOf(p)
	if i < 0 {
		return nil
	}
	var es []oracleEdge
	for k, j := range g.OutIndexesAt(i) {
		es = append(es, oracleEdge{From: p, To: g.vertices[j], Label: g.labels[g.OutLabelsAt(i)[k]]})
	}
	return es
}

func inEdges(g *Graph, p pair.Pair) []oracleEdge {
	i := g.IndexOf(p)
	if i < 0 {
		return nil
	}
	var es []oracleEdge
	for k, j := range g.InIndexesAt(i) {
		es = append(es, oracleEdge{From: g.vertices[j], To: p, Label: g.labels[g.InLabelsAt(i)[k]]})
	}
	return es
}

func TestBuildEdges(t *testing.T) {
	g, ps := buildFig1()
	if g.NumVertices() != 7 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	// joan --(wasBornIn,birthPlace)--> nyc
	out := outEdges(g, ps["joan"])
	foundNYC := false
	for _, e := range out {
		if e.To == ps["nyc"] {
			foundNYC = true
		}
	}
	if !foundNYC {
		t.Error("joan → nyc edge missing")
	}
	// cradle --(directedBy,directedBy)--> tim, and (cradle,player) → tim too.
	if len(outEdges(g, ps["cradle"])) == 0 || len(outEdges(g, ps["cp"])) == 0 {
		t.Error("directedBy edges missing")
	}
	// in-edges of tim come from cradle, player, cp (+ cross pairs absent
	// because (y:Player,d:Cradle) is not a vertex).
	if got := len(inEdges(g, ps["tim"])); got != 3 {
		t.Errorf("in-degree of tim = %d, want 3", got)
	}
}

func TestEdgeSymmetryOfIndexes(t *testing.T) {
	g, _ := buildFig1()
	// Every out edge appears as an in edge of its target.
	for _, v := range g.Vertices() {
		for _, e := range outEdges(g, v) {
			found := false
			for _, e2 := range inEdges(g, e.To) {
				if e2 == e {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %v missing from in-index", e)
			}
		}
	}
}

func TestOutByLabel(t *testing.T) {
	g, ps := buildFig1()
	joan := g.IndexOf(ps["joan"])
	lo, hi := g.GroupsAt(joan)
	if hi-lo != 2 {
		t.Fatalf("joan should have 2 distinct labels, got %d", hi-lo)
	}
	out := outEdges(g, ps["joan"])
	total := 0
	for k := lo; k < hi; k++ {
		label := g.Labels()[g.GroupLabels()[k]]
		for _, pos := range g.GroupEdges(k) {
			if out[pos].Label != label {
				t.Fatalf("group %d (%+v) lists an edge labeled %+v", k, label, out[pos].Label)
			}
			total++
		}
	}
	if total != len(out) {
		t.Error("the label groups lost edges")
	}
}

// TestDenseIndexesMirrorEdges pins the outIdx/inIdx arrays to the oracle's
// edge lists: every dense index must name exactly the edge's endpoint, in
// the parent graph and in an induced subgraph.
func TestDenseIndexesMirrorEdges(t *testing.T) {
	g, ps := buildFig1()
	k1, k2, _ := figure1KBs()
	o := buildOracle(k1, k2, g.Vertices())
	check := func(g *Graph, o *oracleGraph, ctx string) {
		t.Helper()
		for i := range g.Vertices() {
			out, outIdx := o.out[i], g.OutIndexesAt(i)
			if len(out) != len(outIdx) {
				t.Fatalf("%s: vertex %d out %d edges, %d indexes", ctx, i, len(out), len(outIdx))
			}
			for k, e := range out {
				if got := g.IndexOf(e.To); got != int(outIdx[k]) {
					t.Fatalf("%s: outIdx[%d][%d] = %d, IndexOf(To) = %d", ctx, i, k, outIdx[k], got)
				}
			}
			in, inIdx := o.in[i], g.InIndexesAt(i)
			if len(in) != len(inIdx) {
				t.Fatalf("%s: vertex %d in %d edges, %d indexes", ctx, i, len(in), len(inIdx))
			}
			for k, e := range in {
				if got := g.IndexOf(e.From); got != int(inIdx[k]) {
					t.Fatalf("%s: inIdx[%d][%d] = %d, IndexOf(From) = %d", ctx, i, k, inIdx[k], got)
				}
			}
		}
	}
	check(g, o, "parent")
	kept := []pair.Pair{ps["tim"], ps["cradle"], ps["player"], ps["cp"]}
	sub := g.Subgraph(kept)
	check(sub, o.subgraph(kept), "subgraph")
	// The subgraph keeps every edge among the kept vertices.
	if sub.NumEdges() == 0 {
		t.Fatal("subgraph dropped all edges")
	}
}

// TestOutGroupsAtInverseTieBreak is the regression test for the label
// ordering bug: two labels differing only in direction must group in the
// specified forward-before-inverse order (BuildProb used to sort labels on
// (R1, R2) alone, leaving the tie to sort.Slice's unstable whim).
func TestOutGroupsAtInverseTieBreak(t *testing.T) {
	k1 := kb.New("k1")
	k2 := kb.New("k2")
	r1 := k1.AddRel("linked")
	r2 := k2.AddRel("linked")
	a1, b1 := k1.AddEntity("a1"), k1.AddEntity("b1")
	a2, b2 := k2.AddEntity("a2"), k2.AddEntity("b2")
	// The relation runs both ways between a and b in both KBs, so vertex
	// (a1,a2) carries a forward AND an inverse edge under the same (r1,r2).
	k1.AddRelTriple(a1, r1, b1)
	k1.AddRelTriple(b1, r1, a1)
	k2.AddRelTriple(a2, r2, b2)
	k2.AddRelTriple(b2, r2, a2)
	va := pair.Pair{U1: a1, U2: a2}
	vb := pair.Pair{U1: b1, U2: b2}
	g := Build(k1, k2, []pair.Pair{va, vb})
	lo, hi := g.GroupsAt(g.IndexOf(va))
	if hi-lo != 2 {
		t.Fatalf("got %d label groups, want 2 (forward + inverse)", hi-lo)
	}
	first, second := g.Labels()[g.GroupLabels()[lo]], g.Labels()[g.GroupLabels()[lo+1]]
	if first.Inverse || !second.Inverse {
		t.Fatalf("labels out of order: %+v then %+v, want forward before inverse", first, second)
	}
	out, idx := outEdges(g, va), g.OutIndexesAt(g.IndexOf(va))
	for k := lo; k < hi; k++ {
		if len(g.GroupEdges(k)) != 1 {
			t.Fatalf("group %d: %d edges, want 1", k, len(g.GroupEdges(k)))
		}
		for _, pos := range g.GroupEdges(k) {
			if g.IndexOf(out[pos].To) != int(idx[pos]) {
				t.Fatalf("group %d edge %d: To index %d, IndexOf %d", k, pos, idx[pos], g.IndexOf(out[pos].To))
			}
		}
	}
	if !(RelPair{R1: r1, R2: r2}).Less(RelPair{R1: r1, R2: r2, Inverse: true}) {
		t.Error("RelPair.Less must order forward before inverse")
	}
}

func TestIsolated(t *testing.T) {
	k1, k2, ps := figure1KBs()
	lonely1 := k1.AddEntity("y:Lonely")
	lonely2 := k2.AddEntity("d:Lonely")
	iso := pair.Pair{U1: lonely1, U2: lonely2}
	g := Build(k1, k2, []pair.Pair{ps["joan"], ps["nyc"], iso})
	got := g.Isolated()
	if len(got) != 1 || got[0] != iso {
		t.Errorf("Isolated = %v, want [%v]", got, iso)
	}
}

func TestLabels(t *testing.T) {
	g, _ := buildFig1()
	labels := g.Labels()
	// Three relationship pairs, each materialized forward and inverse.
	if len(labels) != 6 {
		t.Errorf("Labels = %v, want 6 (3 pairs × 2 directions)", labels)
	}
	forward, inverse := 0, 0
	for _, l := range labels {
		if l.Inverse {
			inverse++
		} else {
			forward++
		}
	}
	if forward != 3 || inverse != 3 {
		t.Errorf("forward=%d inverse=%d, want 3/3", forward, inverse)
	}
}

func TestInverseEdgesExist(t *testing.T) {
	g, ps := buildFig1()
	// (Tim,Tim) must reach the movie pairs through the inverse of
	// directedBy — the paper's §V-B propagation example.
	found := false
	for _, e := range outEdges(g, ps["tim"]) {
		if e.To == ps["cradle"] && e.Label.Inverse {
			found = true
		}
	}
	if !found {
		t.Errorf("no inverse edge tim → cradle: %v", outEdges(g, ps["tim"]))
	}
}

func TestContainsAndIndexOf(t *testing.T) {
	g, ps := buildFig1()
	if g.IndexOf(ps["tim"]) < 0 {
		t.Error("IndexOf(tim) < 0")
	}
	if g.IndexOf(pair.Pair{U1: 99, U2: 99}) != -1 {
		t.Error("IndexOf(fake) != -1")
	}
}

func TestEmptyGraph(t *testing.T) {
	k1, k2, _ := figure1KBs()
	g := Build(k1, k2, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Error("empty vertex set should give empty graph")
	}
}

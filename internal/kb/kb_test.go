package kb

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample() *KB {
	k := New("yago")
	joan := k.AddEntity("y:Joan")
	k.SetLabel(joan, "Joan Crawford")
	k.SetType(joan, "person")
	nyc := k.AddEntity("y:NYC")
	k.SetLabel(nyc, "New York City")
	k.SetType(nyc, "city")
	cradle := k.AddEntity("y:Cradle")
	k.SetLabel(cradle, "Cradle of Champions")
	k.SetType(cradle, "movie")

	born := k.AddAttr("birthDate")
	k.AddAttrTriple(joan, born, "1904-03-23")

	wasBornIn := k.AddRel("wasBornIn")
	actedIn := k.AddRel("actedIn")
	k.AddRelTriple(joan, wasBornIn, nyc)
	k.AddRelTriple(joan, actedIn, cradle)
	return k
}

func TestAddAndLookupEntity(t *testing.T) {
	k := New("test")
	a := k.AddEntity("e1")
	b := k.AddEntity("e2")
	if a == b {
		t.Fatal("distinct entities share an ID")
	}
	if again := k.AddEntity("e1"); again != a {
		t.Errorf("re-adding e1: got %d, want %d", again, a)
	}
	if k.Entity("e1") != a || k.Entity("missing") != NoEntity {
		t.Error("Entity lookup wrong")
	}
	if k.EntityName(a) != "e1" {
		t.Errorf("EntityName = %q", k.EntityName(a))
	}
	if k.NumEntities() != 2 {
		t.Errorf("NumEntities = %d, want 2", k.NumEntities())
	}
}

func TestLabelsAndTypes(t *testing.T) {
	k := New("test")
	u := k.AddEntity("e")
	if k.Label(u) != "e" {
		t.Errorf("default label = %q, want entity name", k.Label(u))
	}
	k = New("test")
	u = k.AddEntity("e")
	k.SetLabel(u, "Display")
	k.SetType(u, "person")
	if k.Label(u) != "Display" || k.Type(u) != "person" {
		t.Error("SetLabel/SetType not reflected")
	}
}

func TestAttrTriples(t *testing.T) {
	k := New("test")
	u := k.AddEntity("e")
	a := k.AddAttr("name")
	other := k.AddAttr("other")
	k.AddAttrTriple(u, a, "bob")
	k.AddAttrTriple(u, a, "alice")
	k.AddAttrTriple(u, a, "bob") // duplicate
	vals := k.AttrValues(u, a)
	if len(vals) != 2 || vals[0] != "alice" || vals[1] != "bob" {
		t.Errorf("AttrValues = %v, want sorted unique [alice bob]", vals)
	}
	if k.Stats().AttrTriples != 2 {
		t.Errorf("AttrTriples = %d, want 2", k.Stats().AttrTriples)
	}
	attrs := k.Attrs(u)
	if len(attrs) != 1 || attrs[0] != a {
		t.Errorf("Attrs = %v", attrs)
	}
	if got := k.AttrValues(u, other); got != nil {
		t.Errorf("missing attribute should return nil, got %v", got)
	}
}

func TestRelTriples(t *testing.T) {
	k := buildSample()
	born := k.AddRel("wasBornIn")
	iso := k.AddEntity("y:Isolated")
	joan := k.Entity("y:Joan")
	nyc := k.Entity("y:NYC")
	out := k.Out(joan, born)
	if len(out) != 1 || out[0] != nyc {
		t.Errorf("Out = %v", out)
	}
	in := k.In(nyc, born)
	if len(in) != 1 || in[0] != joan {
		t.Errorf("In = %v", in)
	}
	if len(k.OutRels(joan)) == 0 || len(k.InRels(nyc)) == 0 {
		t.Error("connected entities list no relationship")
	}
	if len(k.OutRels(iso))+len(k.InRels(iso)) != 0 {
		t.Error("isolated entity lists a relationship")
	}
	if k.Stats().RelTriples != 2 {
		t.Errorf("RelTriples = %d, want 2", k.Stats().RelTriples)
	}
	rels := k.OutRels(joan)
	if len(rels) != 2 {
		t.Errorf("OutRels = %v, want two rels", rels)
	}
	if got := k.InRels(nyc); len(got) != 1 || got[0] != born {
		t.Errorf("InRels = %v", got)
	}
}

func TestDuplicateRelTripleIgnored(t *testing.T) {
	k := New("test")
	u, v := k.AddEntity("a"), k.AddEntity("b")
	r := k.AddRel("r")
	k.AddRelTriple(u, r, v)
	k.AddRelTriple(u, r, v)
	if k.Stats().RelTriples != 1 {
		t.Errorf("duplicate triple counted: %d", k.Stats().RelTriples)
	}
	if got := k.Out(u, r); len(got) != 1 {
		t.Errorf("Out = %v", got)
	}
}

func TestStats(t *testing.T) {
	k := buildSample()
	s := k.Stats()
	if s.Entities != 3 || s.Attrs != 1 || s.Rels != 2 || s.AttrTriples != 1 || s.RelTriples != 2 {
		t.Errorf("Stats = %+v", s)
	}
	if !strings.Contains(s.String(), "yago") {
		t.Errorf("Stats.String missing name: %q", s.String())
	}
}

func TestTSVRoundTrip(t *testing.T) {
	k := buildSample()
	born := k.AddRel("wasBornIn") // the first relationship written: the same ID after reading
	var buf bytes.Buffer
	if err := k.WriteTSV(&buf); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	k2, err := ReadTSV(&buf)
	if err != nil {
		t.Fatalf("ReadTSV: %v", err)
	}
	if k2.Name() != "yago" {
		t.Errorf("round-trip name = %q", k2.Name())
	}
	if k2.NumEntities() != k.NumEntities() ||
		k2.Stats().AttrTriples != k.Stats().AttrTriples ||
		k2.Stats().RelTriples != k.Stats().RelTriples {
		t.Errorf("round-trip stats differ: %v vs %v", k2.Stats(), k.Stats())
	}
	joan := k2.Entity("y:Joan")
	if joan == NoEntity {
		t.Fatal("y:Joan missing after round trip")
	}
	if k2.Label(joan) != "Joan Crawford" || k2.Type(joan) != "person" {
		t.Errorf("label/type lost: %q %q", k2.Label(joan), k2.Type(joan))
	}
	if born < 0 {
		t.Fatal("wasBornIn missing")
	}
	if out := k2.Out(joan, born); len(out) != 1 || k2.EntityName(out[0]) != "y:NYC" {
		t.Errorf("rel triple lost: %v", out)
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []string{
		"E\tonly\ttwo",
		"A\ta\tb",
		"R\ta\tb",
		"X\ta\tb\tc",
	}
	for _, c := range cases {
		if _, err := ReadTSV(strings.NewReader(c + "\n")); err == nil {
			t.Errorf("ReadTSV(%q) succeeded, want error", c)
		}
	}
	// Blank lines and comments are fine.
	if _, err := ReadTSV(strings.NewReader("\n# comment\n")); err != nil {
		t.Errorf("benign input rejected: %v", err)
	}
}

// Property: Out/In stay mutually consistent and sorted under random
// insertion orders.
func TestRelIndexConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := New("rand")
		const n = 20
		for i := 0; i < n; i++ {
			k.AddEntity(string(rune('a' + i)))
		}
		r := k.AddRel("r")
		type edge struct{ u, v EntityID }
		edges := map[edge]bool{}
		for i := 0; i < 60; i++ {
			u := EntityID(rng.Intn(n))
			v := EntityID(rng.Intn(n))
			k.AddRelTriple(u, r, v)
			edges[edge{u, v}] = true
		}
		if k.Stats().RelTriples != len(edges) {
			return false
		}
		for e := range edges {
			if !containsEntity(k.Out(e.u, r), e.v) || !containsEntity(k.In(e.v, r), e.u) {
				return false
			}
		}
		for u := 0; u < n; u++ {
			if !sortedEntities(k.Out(EntityID(u), r)) || !sortedEntities(k.In(EntityID(u), r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func containsEntity(s []EntityID, v EntityID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func sortedEntities(s []EntityID) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// TestWriteTSVRejectsBreaks: a tab or line break inside any field would
// shift the fields or start a record of its own on reading, so WriteTSV
// refuses the KB instead of writing it.
func TestWriteTSVRejectsBreaks(t *testing.T) {
	build := func(field int, s string) *KB {
		strs := []string{"kb", "e", "label", "type", "attr", "rel", "value"}
		strs[field] = s
		k := New(strs[0])
		u := k.AddEntity(strs[1])
		k.SetLabel(u, strs[2])
		k.SetType(u, strs[3])
		k.AddAttrTriple(u, k.AddAttr(strs[4]), strs[6])
		k.AddRelTriple(u, k.AddRel(strs[5]), u)
		return k
	}
	if err := build(0, "kb").WriteTSV(io.Discard); err != nil {
		t.Fatalf("a clean KB: %v", err)
	}
	for field := range 7 {
		for _, s := range []string{"x\nE\tinjected\tl\tt", "a\tb", "a\nb", "a\rb", "ab\r"} {
			var buf bytes.Buffer
			if err := build(field, s).WriteTSV(&buf); err == nil {
				t.Errorf("field %d = %q written without error:\n%s", field, s, buf.String())
			}
		}
	}
}

package kb

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// EntityID identifies an entity within one KB. IDs are dense: the first
// added entity gets ID 0.
type EntityID int32

// AttrID identifies an attribute within one KB.
type AttrID int32

// RelID identifies a relationship within one KB.
type RelID int32

// NoEntity is returned by lookups that fail.
const NoEntity EntityID = -1

// AttrTriple is an attribute triple (entity, attribute, literal).
type AttrTriple struct {
	Subject EntityID
	Attr    AttrID
	Value   string
}

// RelTriple is a relationship triple (entity, relationship, entity).
type RelTriple struct {
	Subject EntityID
	Rel     RelID
	Object  EntityID
}

// KB is a single knowledge base. The zero value is not usable; construct
// with New. KB is not safe for concurrent mutation; concurrent reads are
// safe once construction finishes.
type KB struct {
	name string

	entityNames []string
	entityIdx   map[string]EntityID
	entityLabel []string // rdfs:label-like display label per entity
	entityType  []string // optional type tag (person, movie, ...) per entity

	attrNames []string
	attrIdx   map[string]AttrID

	relNames []string
	relIdx   map[string]RelID

	// attrValues[u][a] = sorted list of literal values.
	attrValues []map[AttrID][]string
	// relOut[u][r] = sorted list of object entities; relIn is the inverse.
	relOut []map[RelID][]EntityID
	relIn  []map[RelID][]EntityID

	nAttrTriples int
	nRelTriples  int
}

// New returns an empty KB with the given name (used in diagnostics and
// serialization headers).
func New(name string) *KB {
	return &KB{
		name:      name,
		entityIdx: make(map[string]EntityID),
		attrIdx:   make(map[string]AttrID),
		relIdx:    make(map[string]RelID),
	}
}

// Name returns the KB's name.
func (k *KB) Name() string { return k.name }

// AddEntity interns the entity named name and returns its ID; repeated
// calls with the same name return the same ID. The label defaults to the
// name until SetLabel is called.
func (k *KB) AddEntity(name string) EntityID {
	if id, ok := k.entityIdx[name]; ok {
		return id
	}
	id := EntityID(len(k.entityNames))
	k.entityIdx[name] = id
	k.entityNames = append(k.entityNames, name)
	k.entityLabel = append(k.entityLabel, name)
	k.entityType = append(k.entityType, "")
	k.attrValues = append(k.attrValues, nil)
	k.relOut = append(k.relOut, nil)
	k.relIn = append(k.relIn, nil)
	return id
}

// Entity returns the ID of the named entity, or NoEntity if absent.
func (k *KB) Entity(name string) EntityID {
	if id, ok := k.entityIdx[name]; ok {
		return id
	}
	return NoEntity
}

// EntityName returns the interned name of u.
func (k *KB) EntityName(u EntityID) string { return k.entityNames[u] }

// SetLabel sets the display label of u (the value compared during
// blocking). An empty label models the unlabeled entities observed on the
// D-Y dataset.
func (k *KB) SetLabel(u EntityID, label string) { k.entityLabel[u] = label }

// Label returns the display label of u.
func (k *KB) Label(u EntityID) string { return k.entityLabel[u] }

// SetType tags u with a type name (person, movie, city, ...). Types are
// used by partition-based baselines (HIKE/POWER/Corleone deployment) and by
// dataset generators; Remp itself never reads them.
func (k *KB) SetType(u EntityID, typ string) { k.entityType[u] = typ }

// Type returns the type tag of u ("" if untyped).
func (k *KB) Type(u EntityID) string { return k.entityType[u] }

// AddAttr interns an attribute name.
func (k *KB) AddAttr(name string) AttrID {
	if id, ok := k.attrIdx[name]; ok {
		return id
	}
	id := AttrID(len(k.attrNames))
	k.attrIdx[name] = id
	k.attrNames = append(k.attrNames, name)
	return id
}

// AttrName returns the interned name of a.
func (k *KB) AttrName(a AttrID) string { return k.attrNames[a] }

// AddRel interns a relationship name.
func (k *KB) AddRel(name string) RelID {
	if id, ok := k.relIdx[name]; ok {
		return id
	}
	id := RelID(len(k.relNames))
	k.relIdx[name] = id
	k.relNames = append(k.relNames, name)
	return id
}

// AddAttrTriple records (u, a, value). Duplicate triples are ignored.
func (k *KB) AddAttrTriple(u EntityID, a AttrID, value string) {
	m := k.attrValues[u]
	if m == nil {
		m = make(map[AttrID][]string, 2)
		k.attrValues[u] = m
	}
	vals := m[a]
	i := sort.SearchStrings(vals, value)
	if i < len(vals) && vals[i] == value {
		return
	}
	vals = append(vals, "")
	copy(vals[i+1:], vals[i:])
	vals[i] = value
	m[a] = vals
	k.nAttrTriples++
}

// AddRelTriple records (u, r, v). Duplicate triples are ignored.
func (k *KB) AddRelTriple(u EntityID, r RelID, v EntityID) {
	if insertEntity(&k.relOut[u], r, v) {
		insertEntity(&k.relIn[v], r, u)
		k.nRelTriples++
	}
}

func insertEntity(mp *map[RelID][]EntityID, r RelID, v EntityID) bool {
	m := *mp
	if m == nil {
		m = make(map[RelID][]EntityID, 2)
		*mp = m
	}
	vals := m[r]
	i := sort.Search(len(vals), func(i int) bool { return vals[i] >= v })
	if i < len(vals) && vals[i] == v {
		return false
	}
	vals = append(vals, 0)
	copy(vals[i+1:], vals[i:])
	vals[i] = v
	m[r] = vals
	return true
}

// AttrValues returns the sorted literal value set N_a(u). The returned
// slice must not be modified.
func (k *KB) AttrValues(u EntityID, a AttrID) []string {
	if m := k.attrValues[u]; m != nil {
		return m[a]
	}
	return nil
}

// Attrs returns the sorted list of attributes for which u has at least one
// value.
func (k *KB) Attrs(u EntityID) []AttrID {
	m := k.attrValues[u]
	if len(m) == 0 {
		return nil
	}
	out := make([]AttrID, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// Out returns the sorted relationship value set N_r(u) (objects of triples
// (u, r, ·)). The returned slice must not be modified.
func (k *KB) Out(u EntityID, r RelID) []EntityID {
	if m := k.relOut[u]; m != nil {
		return m[r]
	}
	return nil
}

// In returns the sorted set of subjects of triples (·, r, u).
func (k *KB) In(u EntityID, r RelID) []EntityID {
	if m := k.relIn[u]; m != nil {
		return m[r]
	}
	return nil
}

// OutRels returns the sorted relationships for which u has at least one
// outgoing triple.
func (k *KB) OutRels(u EntityID) []RelID {
	return relKeys(k.relOut[u])
}

// InRels returns the sorted relationships for which u has at least one
// incoming triple.
func (k *KB) InRels(u EntityID) []RelID {
	return relKeys(k.relIn[u])
}

func relKeys(m map[RelID][]EntityID) []RelID {
	if len(m) == 0 {
		return nil
	}
	out := make([]RelID, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// NumEntities returns |U|.
func (k *KB) NumEntities() int { return len(k.entityNames) }

// NumAttrs returns |A|.
func (k *KB) NumAttrs() int { return len(k.attrNames) }

// NumRels returns |R|.
func (k *KB) NumRels() int { return len(k.relNames) }

// Stats summarizes a KB for Table II-style reporting.
type Stats struct {
	Name        string
	Entities    int
	Attrs       int
	Rels        int
	AttrTriples int
	RelTriples  int
}

// Stats returns summary counts.
func (k *KB) Stats() Stats {
	return Stats{
		Name:        k.name,
		Entities:    k.NumEntities(),
		Attrs:       k.NumAttrs(),
		Rels:        k.NumRels(),
		AttrTriples: k.nAttrTriples,
		RelTriples:  k.nRelTriples,
	}
}

// String implements fmt.Stringer for Stats.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d entities, %d attrs, %d rels, %d attr triples, %d rel triples",
		s.Name, s.Entities, s.Attrs, s.Rels, s.AttrTriples, s.RelTriples)
}

// WriteTSV serializes the KB in a line-based format:
//
//	E <entity> <label> <type>
//	A <entity> <attribute> <value>
//	R <entity> <relationship> <entity>
//
// Fields are tab-separated; values may contain spaces but not tabs or
// newlines.
func (k *KB) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# kb\t%s\n", k.name)
	for u, name := range k.entityNames {
		fmt.Fprintf(bw, "E\t%s\t%s\t%s\n", name, k.entityLabel[u], k.entityType[u])
	}
	for u := range k.entityNames {
		for _, a := range k.Attrs(EntityID(u)) {
			for _, v := range k.AttrValues(EntityID(u), a) {
				fmt.Fprintf(bw, "A\t%s\t%s\t%s\n", k.entityNames[u], k.attrNames[a], v)
			}
		}
	}
	for u := range k.entityNames {
		for _, r := range k.OutRels(EntityID(u)) {
			for _, v := range k.Out(EntityID(u), r) {
				fmt.Fprintf(bw, "R\t%s\t%s\t%s\n", k.entityNames[u], k.relNames[r], k.entityNames[v])
			}
		}
	}
	return bw.Flush()
}

// ReadTSV parses the format written by WriteTSV.
func ReadTSV(r io.Reader) (*KB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	k := New("kb")
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			parts := strings.Split(text, "\t")
			if len(parts) == 2 && parts[0] == "# kb" {
				k.name = parts[1]
			}
			continue
		}
		parts := strings.Split(text, "\t")
		switch parts[0] {
		case "E":
			if len(parts) != 4 {
				return nil, fmt.Errorf("kb: line %d: E record needs 4 fields, got %d", line, len(parts))
			}
			id := k.AddEntity(parts[1])
			k.SetLabel(id, parts[2])
			k.SetType(id, parts[3])
		case "A":
			if len(parts) != 4 {
				return nil, fmt.Errorf("kb: line %d: A record needs 4 fields, got %d", line, len(parts))
			}
			k.AddAttrTriple(k.AddEntity(parts[1]), k.AddAttr(parts[2]), parts[3])
		case "R":
			if len(parts) != 4 {
				return nil, fmt.Errorf("kb: line %d: R record needs 4 fields, got %d", line, len(parts))
			}
			k.AddRelTriple(k.AddEntity(parts[1]), k.AddRel(parts[2]), k.AddEntity(parts[3]))
		default:
			return nil, fmt.Errorf("kb: line %d: unknown record type %q", line, parts[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("kb: scan: %w", err)
	}
	return k, nil
}

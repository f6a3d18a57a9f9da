package kb

import (
	"bufio"
	"cmp"
	"fmt"
	"hash/maphash"
	"io"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// EntityID identifies an entity within one KB. IDs are dense: the first
// added entity gets ID 0.
type EntityID int32

// AttrID identifies an attribute within one KB.
type AttrID int32

// RelID identifies a relationship within one KB.
type RelID int32

// LitID identifies a distinct attribute value in one KB's literal
// dictionary.
type LitID uint32

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

// KB is a single knowledge base, held as flat arrays once frozen (see
// doc.go). The zero value is not usable; construct with New, ReadTSV or
// ReadSnapshot. A KB from New collects Add*/Set* calls and freezes on
// Freeze or its first read, after which every mutator panics; concurrent
// reads are safe.
type KB struct {
	name string

	b      *builder // construction state; nil once frozen
	frozen atomic.Bool
	once   sync.Once

	names, labels, types strTab // per entity
	index                nameIndex
	attrNames, relNames  strTab
	attrs                csr[AttrID, string] // N_a(u), runs per attribute
	lits                 strTab              // the literal dictionary
	litOf                []LitID             // attrs.val[i] is lits.at(litOf[i])
	out, in              csr[RelID, EntityID]
}

// builder is what a KB under construction holds: the interned names, and
// every triple added so far, unsorted and possibly repeated.
type builder struct {
	names, labels, types []string
	index                map[string]EntityID
	attrNames, relNames  []string
	attrIdx              map[string]AttrID
	relIdx               map[string]RelID
	attrs                []AttrTriple
	rels                 []RelTriple
}

// strTab is a table of strings packed into one blob: entry i is
// blob[off[i]:off[i+1]].
type strTab struct {
	blob string
	off  []uint32
}

func (t *strTab) at(i int) string { return t.blob[t.off[i]:t.off[i+1]] }

func (t *strTab) len() int { return len(t.off) - 1 }

func pack(strs []string) strTab {
	off := make([]uint32, 1, len(strs)+1)
	for _, s := range strs {
		off = append(off, off[len(off)-1]+uint32(len(s)))
	}
	return strTab{blob: strings.Join(strs, ""), off: off}
}

// nameIndex finds an entity by name: an open-addressing table holding
// ID+1 (0 is empty) in 1.5 slots per entity, probed linearly from the
// name's hash: 6 bytes a name, where a map[string]EntityID costs 35–47
// (Go 1.24, measured), about a third of a whole decoded KB.
type nameIndex struct {
	seed  maphash.Seed
	slots []uint32
}

// lookup returns the ID of name, or NoEntity and the empty slot where it
// belongs.
func (x *nameIndex) lookup(names *strTab, name string) (EntityID, int) {
	i, _ := bits.Mul64(maphash.String(x.seed, name), uint64(len(x.slots)))
	for ; ; i++ {
		if i == uint64(len(x.slots)) {
			i = 0
		}
		if s := x.slots[i]; s == 0 {
			return NoEntity, int(i)
		} else if names.at(int(s-1)) == name {
			return EntityID(s - 1), int(i)
		}
	}
}

// indexNames indexes names; it stops at, and reports, the first name that
// repeats an earlier one.
func indexNames(names *strTab) (x nameIndex, dup string, ok bool) {
	x = nameIndex{seed: maphash.MakeSeed(), slots: make([]uint32, names.len()*3/2+1)}
	for u := range names.len() {
		name := names.at(u)
		id, i := x.lookup(names, name)
		if id != NoEntity {
			return x, name, false
		}
		x.slots[i] = uint32(u + 1)
	}
	return x, "", true
}

// csr is a two-level compressed sparse row index: entity u's keys are
// key[row[u]:row[u+1]], ascending, and the values of run j are
// val[off[j]:off[j+1]], ascending.
type csr[K ~int32, V any] struct {
	row []uint32
	key []K
	off []uint32
	val []V
}

// newCSR indexes m entries over n entities; at(i) returns entry i, and
// the entries come sorted by (entity, key, value) without repeats.
func newCSR[K ~int32, V any](n, m int, at func(int) (EntityID, K, V)) csr[K, V] {
	c := csr[K, V]{row: make([]uint32, n+1), val: make([]V, m)}
	runs, pu, pk := 0, NoEntity, K(0)
	for i := range m {
		if u, k, _ := at(i); u != pu || k != pk {
			runs++
			c.row[u+1]++
			pu, pk = u, k
		}
	}
	for u := range n {
		c.row[u+1] += c.row[u]
	}
	c.key, c.off, pu = make([]K, 0, runs), make([]uint32, 0, runs+1), NoEntity
	for i := range m {
		u, k, v := at(i)
		if u != pu || k != pk {
			c.key = append(c.key, k)
			c.off = append(c.off, uint32(i))
			pu, pk = u, k
		}
		c.val[i] = v
	}
	c.off = append(c.off, uint32(m))
	return c
}

func (c *csr[K, V]) keys(u EntityID) []K {
	lo, hi := c.row[u], c.row[u+1]
	if lo == hi {
		return nil
	}
	return c.key[lo:hi:hi]
}

// window returns where in val u's run on k lies: [a, b), empty if u has
// no such run.
func (c *csr[K, V]) window(u EntityID, k K) (a, b uint32) {
	lo := c.row[u]
	i, ok := slices.BinarySearch(c.key[lo:c.row[u+1]], k)
	if !ok {
		return 0, 0
	}
	return c.off[lo+uint32(i)], c.off[lo+uint32(i)+1]
}

func (c *csr[K, V]) get(u EntityID, k K) []V {
	a, b := c.window(u, k)
	if a == b {
		return nil
	}
	return c.val[a:b:b]
}

// each calls f on every entry in (entity, key, value) order.
func (c *csr[K, V]) each(f func(u EntityID, k K, v V)) {
	for u := range len(c.row) - 1 {
		for j := c.row[u]; j < c.row[u+1]; j++ {
			for _, v := range c.val[c.off[j]:c.off[j+1]] {
				f(EntityID(u), c.key[j], v)
			}
		}
	}
}

// sortBy returns ts stably reordered by key(t) ∈ [0, n): one counting
// pass, then a fill.
func sortBy[T any](ts []T, n int, key func(T) int) []T {
	pos := make([]int32, n+1)
	for _, t := range ts {
		pos[key(t)+1]++
	}
	for i := range n {
		pos[i+1] += pos[i]
	}
	out := make([]T, len(ts))
	for _, t := range ts {
		k := key(t)
		out[pos[k]] = t
		pos[k]++
	}
	return out
}

// compareRel orders triples canonically: by subject, relationship, object.
func compareRel(x, y RelTriple) int {
	return cmp.Or(cmp.Compare(x.Subject, y.Subject), cmp.Compare(x.Rel, y.Rel), cmp.Compare(x.Object, y.Object))
}

// dictionary numbers the distinct strings among at(0), …, at(m-1) in
// order of first use: dict lists them, and entry i is dict[ids[i]].
func dictionary(m int, at func(int) string) (dict []string, ids []LitID) {
	ids = make([]LitID, m)
	seen := make(map[string]LitID)
	for i := range m {
		id, ok := seen[at(i)]
		if !ok {
			id = LitID(len(dict))
			seen[at(i)] = id
			dict = append(dict, at(i))
		}
		ids[i] = id
	}
	return dict, ids
}

// New returns an empty KB with the given name (used in diagnostics and
// serialization headers).
func New(name string) *KB {
	return &KB{name: name, b: &builder{
		index:   make(map[string]EntityID),
		attrIdx: make(map[string]AttrID),
		relIdx:  make(map[string]RelID),
	}}
}

// Name returns the KB's name.
func (k *KB) Name() string { return k.name }

// building returns the construction state, panicking with the mutator's
// name once the KB is frozen.
func (k *KB) building(method string) *builder {
	if k.frozen.Load() {
		panic("kb: " + method + " on a frozen KB")
	}
	return k.b
}

// Freeze ends construction: the added triples are sorted, deduplicated and
// laid out as flat arrays, and every later Add*/Set* call panics. Every
// read freezes first, so calling Freeze is needed only to fix the point
// (the generators and readers return frozen KBs). It is idempotent.
func (k *KB) Freeze() {
	if !k.frozen.Load() {
		k.once.Do(k.freeze)
	}
}

func (k *KB) freeze() {
	b := k.b
	n := len(b.names)
	k.names, k.labels, k.types = pack(b.names), pack(b.labels), pack(b.types)
	k.attrNames, k.relNames = pack(b.attrNames), pack(b.relNames)
	k.index, _, _ = indexNames(&k.names)

	// The triples sorted canonically, repeats dropped; the distinct
	// literals are numbered and packed into one blob.
	slices.SortFunc(b.attrs, func(x, y AttrTriple) int {
		return cmp.Or(cmp.Compare(x.Subject, y.Subject), cmp.Compare(x.Attr, y.Attr), strings.Compare(x.Value, y.Value))
	})
	attrs := slices.Compact(b.attrs)
	lits, ids := dictionary(len(attrs), func(i int) string { return attrs[i].Value })
	k.lits, k.litOf = pack(lits), ids
	k.attrs = newCSR(n, len(attrs), func(i int) (EntityID, AttrID, string) {
		return attrs[i].Subject, attrs[i].Attr, k.lits.at(int(ids[i]))
	})
	slices.SortFunc(b.rels, compareRel)
	k.setRels(n, slices.Compact(b.rels))
	k.b = nil
	k.frozen.Store(true)
}

// setRels builds out and in from the canonically ordered (subject, rel,
// object), repeat-free triples of an n-entity KB.
func (k *KB) setRels(n int, rels []RelTriple) {
	k.out = newCSR(n, len(rels), func(i int) (EntityID, RelID, EntityID) {
		return rels[i].Subject, rels[i].Rel, rels[i].Object
	})
	inv := sortBy(sortBy(rels, k.relNames.len(), func(t RelTriple) int { return int(t.Rel) }),
		n, func(t RelTriple) int { return int(t.Object) })
	k.in = newCSR(n, len(inv), func(i int) (EntityID, RelID, EntityID) {
		return inv[i].Object, inv[i].Rel, inv[i].Subject
	})
}

// AddEntity interns the entity named name and returns its ID; repeated
// calls with the same name return the same ID. The label defaults to the
// name until SetLabel is called.
func (k *KB) AddEntity(name string) EntityID {
	b := k.building("AddEntity")
	id, fresh := intern(b.index, &b.names, name)
	if fresh {
		b.labels = append(b.labels, name)
		b.types = append(b.types, "")
	}
	return id
}

// intern returns the ID of name in idx, appending it to names under the
// next ID if it is new.
func intern[ID ~int32](idx map[string]ID, names *[]string, name string) (id ID, fresh bool) {
	if id, ok := idx[name]; ok {
		return id, false
	}
	id = ID(len(*names))
	idx[name] = id
	*names = append(*names, name)
	return id, true
}

// Entity returns the ID of the named entity, or NoEntity if absent.
func (k *KB) Entity(name string) EntityID {
	k.Freeze()
	id, _ := k.index.lookup(&k.names, name)
	return id
}

// EntityName returns the interned name of u.
func (k *KB) EntityName(u EntityID) string { k.Freeze(); return k.names.at(int(u)) }

// SetLabel sets the display label of u (the value compared during
// blocking). An empty label models the unlabeled entities observed on the
// D-Y dataset.
func (k *KB) SetLabel(u EntityID, label string) { k.building("SetLabel").labels[u] = label }

// Label returns the display label of u.
func (k *KB) Label(u EntityID) string { k.Freeze(); return k.labels.at(int(u)) }

// SetType tags u with a type name (person, movie, city, ...). Types are
// used by partition-based baselines (HIKE/POWER/Corleone deployment) and by
// dataset generators; Remp itself never reads them.
func (k *KB) SetType(u EntityID, typ string) { k.building("SetType").types[u] = typ }

// Type returns the type tag of u ("" if untyped).
func (k *KB) Type(u EntityID) string { k.Freeze(); return k.types.at(int(u)) }

// AddAttr interns an attribute name.
func (k *KB) AddAttr(name string) AttrID {
	b := k.building("AddAttr")
	id, _ := intern(b.attrIdx, &b.attrNames, name)
	return id
}

// AttrName returns the interned name of a.
func (k *KB) AttrName(a AttrID) string { k.Freeze(); return k.attrNames.at(int(a)) }

// AddRel interns a relationship name.
func (k *KB) AddRel(name string) RelID {
	b := k.building("AddRel")
	id, _ := intern(b.relIdx, &b.relNames, name)
	return id
}

// AddAttrTriple records (u, a, value). Duplicate triples are ignored.
func (k *KB) AddAttrTriple(u EntityID, a AttrID, value string) {
	b := k.building("AddAttrTriple")
	b.attrs = append(b.attrs, AttrTriple{u, a, value})
}

// AddRelTriple records (u, r, v). Duplicate triples are ignored.
func (k *KB) AddRelTriple(u EntityID, r RelID, v EntityID) {
	b := k.building("AddRelTriple")
	b.rels = append(b.rels, RelTriple{u, r, v})
}

// AttrValues returns the sorted literal value set N_a(u), nil if u has no
// value on a. The returned slice must not be modified.
func (k *KB) AttrValues(u EntityID, a AttrID) []string { k.Freeze(); return k.attrs.get(u, a) }

// AttrLits returns the literal IDs of N_a(u), in AttrValues' order:
// Literal(AttrLits(u, a)[i]) is AttrValues(u, a)[i]. The returned slice
// must not be modified.
func (k *KB) AttrLits(u EntityID, a AttrID) []LitID {
	k.Freeze()
	i, j := k.attrs.window(u, a)
	return k.litOf[i:j:j]
}

// Literal returns the literal numbered id.
func (k *KB) Literal(id LitID) string { k.Freeze(); return k.lits.at(int(id)) }

// NumLiterals returns the size of the literal dictionary: every LitID is
// below it.
func (k *KB) NumLiterals() int { k.Freeze(); return k.lits.len() }

// Attrs returns the sorted list of attributes for which u has at least one
// value. The returned slice must not be modified.
func (k *KB) Attrs(u EntityID) []AttrID { k.Freeze(); return k.attrs.keys(u) }

// Out returns the sorted relationship value set N_r(u) (objects of triples
// (u, r, ·)). The returned slice must not be modified.
func (k *KB) Out(u EntityID, r RelID) []EntityID { k.Freeze(); return k.out.get(u, r) }

// In returns the sorted set of subjects of triples (·, r, u). The returned
// slice must not be modified.
func (k *KB) In(u EntityID, r RelID) []EntityID { k.Freeze(); return k.in.get(u, r) }

// OutRels returns the sorted relationships for which u has at least one
// outgoing triple. The returned slice must not be modified.
func (k *KB) OutRels(u EntityID) []RelID { k.Freeze(); return k.out.keys(u) }

// InRels returns the sorted relationships for which u has at least one
// incoming triple. The returned slice must not be modified.
func (k *KB) InRels(u EntityID) []RelID { k.Freeze(); return k.in.keys(u) }

// NumEntities returns |U|.
func (k *KB) NumEntities() int { k.Freeze(); return k.names.len() }

// NumAttrs returns |A|.
func (k *KB) NumAttrs() int { k.Freeze(); return k.attrNames.len() }

// NumRels returns |R|.
func (k *KB) NumRels() int { k.Freeze(); return k.relNames.len() }

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
	k.Freeze()
	return Stats{
		Name:        k.name,
		Entities:    k.NumEntities(),
		Attrs:       k.NumAttrs(),
		Rels:        k.NumRels(),
		AttrTriples: len(k.attrs.val),
		RelTriples:  len(k.out.val),
	}
}

// String implements fmt.Stringer for Stats.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d entities, %d attrs, %d rels, %d attr triples, %d rel triples",
		s.Name, s.Entities, s.Attrs, s.Rels, s.AttrTriples, s.RelTriples)
}

// tsvBreaks are the bytes no TSV field may hold: a tab ends the field and
// a line break the record (a carriage return before the newline is
// dropped on reading).
const tsvBreaks = "\t\n\r"

// WriteTSV serializes the KB in a line-based format:
//
//	E <entity> <label> <type>
//	A <entity> <attribute> <value>
//	R <entity> <relationship> <entity>
//
// Fields are tab-separated; values may contain spaces but not tabs or
// line breaks, and a KB holding one anywhere (its name included) is an
// error before anything is written.
func (k *KB) WriteTSV(w io.Writer) error {
	if err := k.tsvSafe(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# kb\t%s\n", k.name)
	for u := range k.names.len() {
		fmt.Fprintf(bw, "E\t%s\t%s\t%s\n", k.names.at(u), k.labels.at(u), k.types.at(u))
	}
	k.attrs.each(func(u EntityID, a AttrID, v string) {
		fmt.Fprintf(bw, "A\t%s\t%s\t%s\n", k.names.at(int(u)), k.attrNames.at(int(a)), v)
	})
	k.out.each(func(u EntityID, r RelID, v EntityID) {
		fmt.Fprintf(bw, "R\t%s\t%s\t%s\n", k.names.at(int(u)), k.relNames.at(int(r)), k.names.at(int(v)))
	})
	return bw.Flush()
}

// tsvSafe reports the first string WriteTSV could not write.
func (k *KB) tsvSafe() error {
	k.Freeze()
	strs := append([]string{k.name}, k.attrs.val...)
	for _, t := range []*strTab{&k.names, &k.labels, &k.types, &k.attrNames, &k.relNames} {
		for i := range t.len() {
			strs = append(strs, t.at(i))
		}
	}
	for _, s := range strs {
		if strings.ContainsAny(s, tsvBreaks) {
			return fmt.Errorf("kb: WriteTSV: %q holds a tab or line break", s)
		}
	}
	return nil
}

// ReadTSV parses the format written by WriteTSV and returns a frozen KB.
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
		if strings.Contains(text, "\r") {
			return nil, fmt.Errorf("kb: line %d: carriage return inside a record", line)
		}
		if name, ok := strings.CutPrefix(text, "# kb\t"); ok && !strings.Contains(name, "\t") {
			k.name = name
		}
		if strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts[0]) != 1 || !strings.Contains("EAR", parts[0]) {
			return nil, fmt.Errorf("kb: line %d: unknown record type %q", line, parts[0])
		}
		if len(parts) != 4 {
			return nil, fmt.Errorf("kb: line %d: %s record needs 4 fields, got %d", line, parts[0], len(parts))
		}
		switch u := k.AddEntity(parts[1]); parts[0] {
		case "E":
			k.SetLabel(u, parts[2])
			k.SetType(u, parts[3])
		case "A":
			k.AddAttrTriple(u, k.AddAttr(parts[2]), parts[3])
		case "R":
			k.AddRelTriple(u, k.AddRel(parts[2]), k.AddEntity(parts[3]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("kb: scan: %w", err)
	}
	k.Freeze()
	return k, nil
}

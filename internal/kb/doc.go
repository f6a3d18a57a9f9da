// Package kb implements the knowledge-base substrate of the Remp
// reproduction: a KB is a 5-tuple (U, L, A, R, T) of entities, literals,
// attributes, relationships and triples (§III-A of the paper). Entities,
// attributes and relationships are interned to dense integer IDs; the KB
// maintains the value-set indexes N_a(u) (attribute values of u) and
// N_r(u) (relationship neighbors of u) that every later stage queries.
//
// # Layout
//
// A KB is flat arrays and holds no map. Entity names, labels and types,
// attribute and relationship names, and the literal dictionary are each
// one string blob with an offset per entry. N_a(u) is a CSR (compressed
// sparse rows): per entity an offset into sorted runs of attribute IDs,
// each run a window of one value array whose strings slice the literal
// blob. Beside the values, one array holds each value's LitID, its entry
// in the literal dictionary — numbered by Freeze, or the snapshot's value
// index — so a later stage can key what it derives from a literal by the
// ID and derive it once. N_r(u) is two such CSRs, out and in, of sorted
// RelID runs over sorted entity IDs. Entity(name) probes an
// open-addressing table of IDs. Out, In, OutRels, InRels, Attrs,
// AttrValues and AttrLits return windows of these arrays: they allocate
// nothing, and callers must not modify them.
//
// A KB from New is built through AddEntity, AddAttr, AddRel,
// AddAttrTriple, AddRelTriple, SetLabel and SetType, which append to a
// builder. Freeze — called explicitly or by the first read, once,
// behind a sync.Once — sorts and deduplicates the triples, builds the
// arrays and drops the builder; any mutator after it panics with its
// name. ReadTSV and the dataset generators return frozen KBs;
// ReadSnapshot fills the arrays directly from a snapshot's canonically
// ordered triples, a counting pass and then a fill.
//
// Two serializations are provided. WriteTSV/ReadTSV is the line-based
// text format cmd/datagen emits and cmd/remp consumes — diffable,
// greppable, and the canonical form for fixtures. WriteSnapshot/
// OpenSnapshot is the binary snapshot below, which loads a
// million-entity KB without re-tokenizing or re-interning anything and
// is what repeated bench runs and server restarts use.
//
// # The binary KB snapshot format
//
// A snapshot is a single file (conventionally *.snap, see SnapshotExt)
// with a fixed 32-byte header, a payload, and a 4-byte trailer. All
// integers are little-endian; there is no alignment padding.
//
//	offset  size  field
//	0       8     magic "REMPKB1\n"
//	8       4     format version (currently 1)
//	12      4     flags (must be 0 in version 1)
//	16      8     payload length in bytes
//	24      8     reserved (must be 0)
//	32      ...   payload
//	32+len  4     CRC-32 (IEEE) of the payload bytes
//
// The payload is, in order: the KB name (u32 length + bytes); u32 counts
// of entities, attributes, relationships and distinct attribute values;
// u64 counts of attribute and relationship triples; six string tables
// (entity names, entity labels, entity types, attribute names,
// relationship names, attribute values); then the attribute triples as
// (u32 entity, u32 attr, u32 value-index) and the relationship triples
// as (u32 entity, u32 rel, u32 target entity), both in the KB's
// canonical iteration order. A string table is a u64 blob length, the
// concatenated string bytes, and n+1 u32 offsets delimiting the entries.
//
// Compatibility rules: the magic never changes; any change to the
// payload layout bumps the version, and ReadSnapshot either translates
// the old version explicitly or rejects it with a clear error — silent
// best-effort parsing is not an option. ReadSnapshot validates
// everything: magic, version, zero flags and reserved bytes, the
// declared payload length against the file size, the CRC, every string
// table offset and ID bound, unique entity, attribute and relationship
// names, canonical (strictly increasing, so duplicate-free) triple order,
// and no trailing payload bytes, so a truncated or bit-flipped file fails
// loudly instead of producing a subtly wrong KB.
// WriteSnapshotFile follows the repository's durability protocol (write
// to a temp file, fsync, rename, fsync the directory) so a crash never
// leaves a half-written snapshot under the final name.
package kb

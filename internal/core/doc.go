// Package core orchestrates the full Remp pipeline (§III-B): ER graph
// construction (blocking, attribute matching, partial-order pruning),
// relational match propagation, multiple questions selection and
// error-tolerant truth inference, iterated in human–machine loops until no
// unresolved pair can be inferred, with a random-forest fallback for
// isolated pairs.
//
// # The binary shard format
//
// A Shard is self-contained, and Shard.Encode / DecodeShard carry one
// between processes: it is what a cluster coordinator sends a worker for
// every shard it assigns, in place of a session spec to prepare again. A
// 12-byte header, a payload and a 4-byte trailer; fixed-width integers are
// little-endian, uv is an unsigned LEB128 varint (encoding/binary's
// Uvarint) and f64 the raw IEEE-754 bits, so no float makes a decimal
// round trip.
//
//	offset  size  field
//	0       8     magic "REMPSH1\n"
//	8       4     format version (currently 1)
//	12      ...   payload
//	end-4   4     CRC-32 (IEEE) of the payload bytes
//
// The payload is, in order:
//
//	f64            τ, the precision threshold of the engine's ζ-bound
//	uv + bytes     the selection strategy's name (selection.ByName)
//	uv n           vertices; then n × (uv U1, uv U2), in local index order
//	n × f64        the vertices' priors
//	u8             1, the global-index flag (a reader rejects 0); then n × uv global index
//	uv L           labels; then L × (uv R1, uv R2, u8 inverse, f64 ε1, f64 ε2), in label order
//	n rows         uv degree, then degree × (uv target, uv label index), in row order
//	uv m           probabilistic-graph slots; then m × f64 Pr[m_v′ | m_v], in CSR order
//
// Derived on decode, by the code Prepare derives them with: the in-rows
// and label groups (ergraph.FromRows) and the probabilistic graph's
// topology, edge lengths, in-CSR and degrees (propagation.FromProbs).
//
// Compatibility follows internal/kb's snapshot rules: the magic never
// changes, any change to the payload bumps the version, and a reader
// rejects what it does not know. Readers validate everything — magic,
// version, CRC, every count against the bytes that remain before
// allocating for it, every index against its table, every probability
// against [0, 1], the row order — so a truncated or bit-flipped shard
// fails the prepare RPC instead of starting an engine on a subtly wrong
// graph.
package core

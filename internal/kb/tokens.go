package kb

// TokenID is a dense interned token identifier. The pre-pipeline interns
// every label token once at load through a TokenDict and works on []TokenID
// everywhere downstream: label sets and posting rows hold 4-byte integers
// that index dense arrays, instead of re-hashing strings per pair.
type TokenID uint32

// TokenDict interns tokens to dense TokenIDs. IDs are assigned in first-
// intern order starting at 0, so a dictionary built by one deterministic
// pass over a KB is itself deterministic. The zero value is not usable;
// construct with NewTokenDict. A TokenDict is safe for concurrent reads
// once interning finishes; Intern calls must not race with anything.
type TokenDict struct {
	idx map[string]TokenID
}

// NewTokenDict returns an empty dictionary.
func NewTokenDict() *TokenDict {
	return &TokenDict{idx: make(map[string]TokenID)}
}

// Intern returns the ID of tok, assigning the next dense ID on first
// sight. The lookup reads tok in place; only a token seen for the first
// time is copied into a key.
func (d *TokenDict) Intern(tok []byte) TokenID {
	if id, ok := d.idx[string(tok)]; ok {
		return id
	}
	id := TokenID(len(d.idx))
	d.idx[string(tok)] = id
	return id
}

// Len returns the number of interned tokens.
func (d *TokenDict) Len() int { return len(d.idx) }

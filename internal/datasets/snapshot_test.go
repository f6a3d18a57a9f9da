package datasets

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/kb"
)

// TestSnapshotDigests pins the REMPKB1 bytes every generator's KBs
// serialize to at seed 1: a change to the KB's in-memory layout, or to how
// a generator builds through it, must not move a single snapshot byte.
func TestSnapshotDigests(t *testing.T) {
	want := map[string][2]string{
		"iimb":             {"ac0b22ec5b7866bf42e12246154e33ed2f27890247ccea6ce23c204cb44a601e", "30c69e0b87be434ece7ee8765cad8ac731be4b41fae82373c86cf07f1937bb7a"},
		"d-a":              {"43be19eaed3500857dbcf2a84e6690f65c60f144113b364ba391b06af14f1ec7", "d66060b9aa5535af18fae685b2ddc2e3850386177ffb6652be710d77f3567da4"},
		"i-y":              {"1dde3c314062926214af9f30fa229ed4f81ab441ee64380a488b93004700b510", "3d103ed84b6126ae25206f93145b56dd84f8738ba3f735b415a1e1b08b37e300"},
		"d-y":              {"c9cf4c6d1afafb44a5a49ba7f34367c0857ea2c97c43d878e6531a989a3e79af", "b77ce34b1c57f5baf49c70a8c2416dadaed947843f02e3e4a219b567c0d3ac69"},
		"books":            {"f193dd7749133d9fb26d1bf6020fd5700328679ffdb3dafe8235ce18f3582caa", "b95f69fd596a0c4efc40436328a3a2618aac1aa3e8142a37315ef9585d0a593c"},
		"clustered-120x60": {"16d0dda863c90e608634ed490924a9d3920ca122efa0ba3e37e0ab977cbb0e32", "a5f72f959c553ab060cfd09b7743b13a63146d75c6f41a59b22e8b1ff9d639da"},
		"scale-20000":      {"392eaad7147782e9fb80c8665ac09518d85f38dd0513d2823bb7c15742ed859d", "6649d3a9c0ebae0b200aa3063fcdefa7cfd876ceb519373a5e8f8a73cba5a42c"},
	}
	sets := map[string]*Dataset{
		"clustered-120x60": Clustered(120, 60, 1),
		"scale-20000":      Scale(1, 20000),
	}
	for _, name := range Names() {
		ds, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = ds
	}
	for name, ds := range sets {
		var got [2]string
		for i, k := range []*kb.KB{ds.K1, ds.K2} {
			h := sha256.New()
			if err := k.WriteSnapshot(h); err != nil {
				t.Fatal(err)
			}
			got[i] = hex.EncodeToString(h.Sum(nil))
		}
		if got != want[name] {
			t.Errorf("%s: snapshot digests %q, want %q", name, got, want[name])
		}
	}
}

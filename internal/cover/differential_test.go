package cover

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"prpart/internal/basepart"
	"prpart/internal/connmat"
	"prpart/internal/design"
	"prpart/internal/synthetic"
)

// sameSet reports how a compiled candidate set differs from the
// reference's, or "" when Parts (in order) and Active are identical.
func sameSet(got, want *CandidateSet) string {
	if !reflect.DeepEqual(got.Parts, want.Parts) {
		return fmt.Sprintf("parts %s, want %s", refSetKey(got), refSetKey(want))
	}
	if !reflect.DeepEqual(got.Active, want.Active) {
		return fmt.Sprintf("active %v, want %v", got.Active, want.Active)
	}
	return ""
}

// checkCover compares Cover against the reference on one list.
func checkCover(t *testing.T, label string, list []basepart.BasePartition, m *connmat.Matrix) {
	t.Helper()
	got, gerr := Cover(list, m)
	want, werr := refCover(list, m)
	if errors.Is(gerr, ErrUncoverable) != errors.Is(werr, ErrUncoverable) || (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: Cover err = %v, reference %v", label, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if diff := sameSet(got, want); diff != "" {
		t.Fatalf("%s: Cover %s", label, diff)
	}
}

// checkSets compares Sets against the reference on one list.
func checkSets(t *testing.T, label string, list []basepart.BasePartition, m *connmat.Matrix) {
	t.Helper()
	got, want := Sets(list, m), refSets(list, m)
	if len(got) != len(want) {
		t.Fatalf("%s: Sets returned %d candidate sets, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if diff := sameSet(got[i], want[i]); diff != "" {
			t.Fatalf("%s: set %d: %s", label, i, diff)
		}
	}
}

func reversed(list []basepart.BasePartition) []basepart.BasePartition {
	out := make([]basepart.BasePartition, len(list))
	for i, p := range list {
		out[len(list)-1-i] = p
	}
	return out
}

// checkDesign runs the differential over the lists the solver and its
// ablations cover: the ascending order, the reversed (CoverDescending)
// order, and head- and tail-truncated lists. With doubled it adds the
// list repeated twice, whose second copy must deduplicate against the
// first.
func checkDesign(t *testing.T, d *design.Design, doubled bool) {
	t.Helper()
	m := connmat.New(d)
	parts, err := basepart.BasePartitions(m)
	if err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	ordered := Order(parts)
	lists := map[string][]basepart.BasePartition{
		"ascending":  ordered,
		"descending": reversed(ordered),
	}
	if doubled {
		lists["doubled"] = append(append([]basepart.BasePartition(nil), ordered...), ordered...)
	}
	for _, cut := range []int{1, len(ordered) / 2} {
		lists[fmt.Sprintf("head[:%d]", cut)] = ordered[:cut]
		lists[fmt.Sprintf("tail[%d:]", cut)] = ordered[cut:]
	}
	for name, list := range lists {
		label := d.Name + "/" + name
		checkCover(t, label, list, m)
		checkSets(t, label, list, m)
	}
}

func TestCoverDifferentialPaperDesigns(t *testing.T) {
	for _, d := range []*design.Design{
		design.PaperExample(), design.VideoReceiver(), design.VideoReceiverModified(),
		design.TwoModuleExample(), design.SingleModeExample(),
	} {
		checkDesign(t, d, true)
	}
}

func TestCoverDifferentialSynthetic(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	for i, d := range synthetic.Generate(1, n) {
		checkDesign(t, d, i%10 == 0)
	}
}

// FuzzCoverSets decodes arbitrary bounded designs and requires the
// compiled covering to agree with the reference on every list shape,
// and the compiled kernel to account for every matrix cell: its cell
// count is the sum of the node weights, and every successful pass
// clears exactly that many cells.
func FuzzCoverSets(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 10, 1, 1, 20, 2, 0, 2, 5, 0, 0, 3, 1, 2, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := synthetic.FromBytes(data)
		if err := d.Validate(); err != nil {
			return
		}
		m := connmat.New(d)
		parts, err := basepart.BasePartitions(m)
		if err != nil {
			return
		}
		ordered := Order(parts)
		cut := len(data) % len(ordered)
		for name, list := range map[string][]basepart.BasePartition{
			"ascending":  ordered,
			"descending": reversed(ordered),
			"head":       ordered[:cut],
			"tail":       ordered[cut:],
		} {
			checkCover(t, name, list, m)
			checkSets(t, name, list, m)
		}

		total := 0
		for _, r := range m.Modes() {
			total += m.NodeWeight(r)
		}
		c := compile(ordered, m)
		if c.cells != total {
			t.Fatalf("compiled %d cells, matrix holds %d", c.cells, total)
		}
		for start := range ordered {
			if !c.pass(start) {
				break
			}
			cleared := 0
			for i, row := range c.rows {
				cleared += bits.OnesCount64(row &^ c.work[i])
			}
			if cleared != total {
				t.Fatalf("pass from %d cleared %d cells, matrix holds %d", start, cleared, total)
			}
		}
	})
}

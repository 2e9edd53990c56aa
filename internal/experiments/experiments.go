// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 and Appendices A–C). Cluster-scale experiments
// (Figures 6, 7, 9–12, 16–17, Tables 2–3) run on the analytical simulator
// with the paper's cluster profiles; the accuracy experiment (Figure 8) and
// the size-estimation validation (Figure 15) execute for real on the
// dataflow engine with the executable Tiny* CNNs. Each harness returns a
// structured result whose Render method prints the same rows/series the
// paper reports.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cnn"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/sim"
)

// layersFor returns the paper's |L| for the full-scale CNN that model is or
// stands in for, so the tiny-* models run the evaluation at the paper's
// depths (Section 5: conv5–fc8 for AlexNet, fc6–fc8 for VGG16, top 5 for
// ResNet50).
func layersFor(model string) int {
	return cnn.DefaultLayers(strings.TrimPrefix(model, "tiny-"))
}

// Models are the roster CNNs of the evaluation.
var Models = []string{"alexnet", "vgg16", "resnet50"}

// fmtCell renders a simulated result as minutes, or the paper's "×" for a
// crash.
func fmtCell(r sim.Result) string {
	if r.Crash != nil {
		oom, ok := memory.IsOOM(r.Crash)
		if ok {
			return fmt.Sprintf("×(%s)", oom.Scenario)
		}
		return "×"
	}
	return fmt.Sprintf("%.1f", r.TotalMin())
}

// vistaWorkload builds the Staged/AJ workload Vista runs.
func vistaWorkload(model string, k int, ds sim.DatasetSpec, nodes int, memoryOnly bool) (sim.Workload, error) {
	return sim.NewWorkload(sim.WorkloadSpec{
		ModelName: model, NumLayers: k, Dataset: ds,
		PlanKind: plan.Staged, Placement: plan.AfterJoin,
		Nodes: nodes, MemoryOnly: memoryOnly,
	})
}

// runVista optimizes and simulates Vista's execution.
func runVista(model string, k int, ds sim.DatasetSpec, prof sim.Profile) sim.Result {
	w, err := vistaWorkload(model, k, ds, prof.Nodes, !prof.Kind.SupportsSpill())
	if err != nil {
		return sim.Result{Crash: err}
	}
	cfg, err := sim.VistaConfig(w)
	if err != nil {
		return sim.Result{Crash: err}
	}
	return sim.Run(w, cfg, prof)
}

// table renders a simple fixed-width text table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

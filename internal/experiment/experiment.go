// Package experiment implements the harness that regenerates every table
// and figure of the paper's evaluation (§8). Each FigNN function runs the
// corresponding experiment and returns a printable table with the same
// rows/series the paper reports; bench_test.go wraps them in testing.B
// benchmarks and `nebulactl experiment` exposes them on the command line.
// Measured results are recorded in EXPERIMENTS.md. Performance of the
// engine itself is measured by the end-to-end benchmark in benchmark/.
package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"nebula/internal/workload"
)

// Table is a printable experiment result.
type Table struct {
	// Title identifies the experiment ("Figure 12(a) ...").
	Title string
	// Header names the columns.
	Header []string
	// Rows are the result rows, formatted.
	Rows [][]string
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, strings.Join(sep, "  "))
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV renders the table as RFC-4180 CSV (header row first). The title
// is emitted as a `# comment` line so concatenated experiment outputs stay
// self-describing.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON renders the table as a JSON object with title, header, and
// rows, one object per call (callers concatenate into a JSON-lines file).
func (t *Table) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{Title: t.Title, Header: t.Header, Rows: t.Rows})
}

// WriteMarkdown renders the table as a GitHub-flavoured markdown table with
// the title as a heading — the format EXPERIMENTS.md embeds directly.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
		return err
	}
	row := func(cells []string) error {
		_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
		return err
	}
	if err := row(t.Header); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if err := row(sep); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := row(r); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Write renders the table in the requested format: "text" (default),
// "csv", "json", or "markdown".
func (t *Table) Write(w io.Writer, format string) error {
	switch format {
	case "", "text":
		t.Print(w)
		return nil
	case "csv":
		return t.WriteCSV(w)
	case "json":
		return t.WriteJSON(w)
	case "markdown", "md":
		return t.WriteMarkdown(w)
	default:
		return fmt.Errorf("experiment: unknown output format %q (text|csv|json|markdown)", format)
	}
}

// Env is a prepared experimental environment: one generated dataset.
type Env struct {
	// Name is the dataset label (D_small / D_mid / D_large).
	Name string
	// Dataset is the generated data.
	Dataset *workload.Dataset
}

// DatasetSizes enumerates the three dataset labels in growth order.
var DatasetSizes = []string{"small", "mid", "large"}

var (
	envMu    sync.Mutex
	envCache = map[string]*Env{}
)

// LoadEnv generates (or returns the cached) dataset of the given size.
// Sizes: "tiny", "small", "mid", "large". Generation is deterministic in
// the seed, and environments are cached per (size, seed) for the lifetime
// of the process because the figures reuse them heavily. The cached dataset
// is shared and read-only: anything that grows an engine on a dataset
// generates its own with workload.Generate(workload.SizeConfig(...)).
func LoadEnv(size string, seed int64) (*Env, error) {
	key := fmt.Sprintf("%s/%d", size, seed)
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envCache[key]; ok {
		return e, nil
	}
	cfg, err := workload.SizeConfig(size, seed)
	if err != nil {
		return nil, err
	}
	ds, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	e := &Env{Name: "D_" + size, Dataset: ds}
	envCache[key] = e
	return e, nil
}

// fmtMs renders a duration in milliseconds with 3 decimals.
func fmtMs(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

// fmtF renders a float with 3 decimals.
func fmtF(f float64) string { return fmt.Sprintf("%.3f", f) }

// fmtI renders an int.
func fmtI(n int) string { return fmt.Sprintf("%d", n) }

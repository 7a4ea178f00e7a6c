package bench

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/certify"
	"repro/internal/experiments"
	"repro/internal/relschema"
	"repro/internal/robust"
	"repro/internal/snapshot"
	"repro/internal/sqlbtp"
	"repro/internal/summary"
	"repro/internal/wire"
)

// testdata holds the committed answer key and the PATCH variants.
//
//go:embed testdata/*.json testdata/*.sql
var testdata embed.FS

// expectedFile is the answer key's path inside the bench module.
const expectedFile = "testdata/expected.json"

// certifyMaxSchedules is the per-candidate interleaving budget of every
// certify request the benchmark sends (and of the answer key's statuses).
const certifyMaxSchedules = 1000

// auctionNs are the Auction(n) sizes cold-analysis registers.
var auctionNs = []int{8, 12, 16, 20, 24, 32, 40}

// corpusDialects and corpusBenchmarks name the nine-file SQL corpus under
// internal/sqlbtp/testdata that cold-analysis registers via :fromSQL.
var (
	corpusDialects   = []string{"postgres", "mysql", "sqlite"}
	corpusBenchmarks = []string{"smallbank", "auction", "tpcc"}
)

// methods are the wire names of the two cycle conditions.
var methods = []string{"type2", "type1"}

// settingNames lists the four analysis settings' wire names in the order
// of Figure 6.
func settingNames() []string {
	out := make([]string, len(summary.AllSettings))
	for i, s := range summary.AllSettings {
		out[i] = wire.SettingName(s)
	}
	return out
}

// patchSpec is one program patch-churn rewrites: the workload, the program
// and its two embedded-SQL variants, installed at even and odd workload
// versions respectively.
type patchSpec struct {
	workload string
	program  string
	files    [2]string
}

var patches = []patchSpec{
	{"smallbank", "Balance", [2]string{"smallbank_balance_even.sql", "smallbank_balance_odd.sql"}},
	{"tpcc", "OrderStatus", [2]string{"tpcc_orderstatus_even.sql", "tpcc_orderstatus_odd.sql"}},
}

// variantKey is the answer-key entry of a workload at the given version:
// odd versions of a patched workload run the odd variant.
func variantKey(workload string, version uint64) string {
	if version%2 == 1 {
		return workload + "~odd"
	}
	return workload
}

func (p patchSpec) sql(version uint64) string {
	b, err := testdata.ReadFile("testdata/" + p.files[version%2])
	if err != nil {
		panic(err) // embedded at build time
	}
	return string(b)
}

// Expected is the committed answer key, testdata/expected.json. It is
// produced by -regen-expected from the naive oracle
// (robust.Checker.NaiveRobustSubsets and per-subset summary.Build), never
// from the session engine the service runs, and cross-checked against the
// paper's goldens both when it is written and when it is loaded.
type Expected struct {
	MaxSchedules int                     `json:"max_schedules"`
	Workloads    map[string]*ExpWorkload `json:"workloads"`
	AuctionN     []ExpAuctionN           `json:"auction_n"`
	Corpus       []ExpCorpus             `json:"corpus"`
	Cores        []ExpCore               `json:"cores"`
}

// ExpWorkload is the oracle's view of one program set.
type ExpWorkload struct {
	ID string `json:"id"`
	// Programs are the short names in registration order; bit i of a
	// subset mask selects Programs[i].
	Programs []string               `json:"programs"`
	Settings map[string]*ExpSetting `json:"settings"`

	index map[string]int // short name → mask bit (buildIndex)
}

// ExpSetting holds one setting's summary-graph sizes per subset mask
// (index 0 unused) and each method's subset report.
type ExpSetting struct {
	Edges       []int                  `json:"edges"`
	Counterflow []int                  `json:"counterflow"`
	Methods     map[string]*ExpSubsets `json:"methods"`
}

// ExpSubsets is the oracle's subset report in wire form.
type ExpSubsets struct {
	Robust  [][]string `json:"robust"`
	Maximal [][]string `json:"maximal"`

	robustMask []bool // by subset mask; derived on load
}

// ExpAuctionN is the full-set check of Auction(n) under attr+fk, type2.
type ExpAuctionN struct {
	N           int    `json:"n"`
	ID          string `json:"id"`
	Programs    int    `json:"programs"`
	Robust      bool   `json:"robust"`
	Edges       int    `json:"edges"`
	Counterflow int    `json:"counterflow"`
}

// ExpCorpus maps one corpus file to the workload it compiles to.
type ExpCorpus struct {
	File     string `json:"file"`
	Dialect  string `json:"dialect"`
	Workload string `json:"workload"`
}

// ExpCore is one minimal non-robust core (type2) and the status a
// max_schedules-bounded certification reaches on it.
type ExpCore struct {
	Workload string   `json:"workload"`
	Setting  string   `json:"setting"`
	Programs []string `json:"programs"`
	Status   string   `json:"status"`
}

// --- the paper's goldens ---------------------------------------------------

// table2 is Table 2: edges and counterflow edges of each benchmark's full
// summary graph under attr+fk.
var table2 = map[string][2]int{"smallbank": {56, 12}, "tpcc": {396, 83}, "auction": {17, 1}}

// figure6 and figure7 are the maximal robust subsets of Figures 6 (type2)
// and 7 (type1), per setting.
var (
	figure6 = map[string]map[string][][]string{
		"smallbank": allSettings([][]string{{"Am", "DC", "TS"}, {"Bal", "DC"}, {"Bal", "TS"}}),
		"tpcc": fkOnly([][]string{{"OS", "SL"}, {"NO"}},
			[][]string{{"OS", "Pay", "SL"}, {"NO", "Pay"}}),
		"auction": withFK([][]string{{"FB"}}, [][]string{{"FB", "PB"}}),
	}
	figure7 = map[string]map[string][][]string{
		"smallbank": allSettings([][]string{{"Am", "DC", "TS"}, {"Bal"}}),
		"tpcc": fkOnly([][]string{{"OS", "SL"}, {"NO"}},
			[][]string{{"NO", "Pay"}, {"Pay", "SL"}, {"OS", "SL"}}),
		"auction": withFK([][]string{{"FB"}}, [][]string{{"PB"}, {"FB"}}),
	}
)

func allSettings(v [][]string) map[string][][]string {
	return map[string][][]string{"tpl": v, "attr": v, "tpl+fk": v, "attr+fk": v}
}

func fkOnly(base, attrFK [][]string) map[string][][]string {
	return map[string][][]string{"tpl": base, "attr": base, "tpl+fk": base, "attr+fk": attrFK}
}

func withFK(noFK, fk [][]string) map[string][][]string {
	return map[string][][]string{"tpl": noFK, "attr": noFK, "tpl+fk": fk, "attr+fk": fk}
}

// checkGoldens cross-checks an answer key against Table 2, Figures 6/7 and
// the Auction(n) closed form.
func (e *Expected) checkGoldens() error {
	for name, want := range table2 {
		w := e.Workloads[name]
		if w == nil {
			return fmt.Errorf("answer key lacks workload %s", name)
		}
		full := 1<<len(w.Programs) - 1
		st := w.Settings["attr+fk"]
		if st == nil || st.Edges[full] != want[0] || st.Counterflow[full] != want[1] {
			return fmt.Errorf("%s: Table 2 wants %d edges (%d counterflow) under attr+fk", name, want[0], want[1])
		}
	}
	for method, fig := range map[string]map[string]map[string][][]string{"type2": figure6, "type1": figure7} {
		for name, bySetting := range fig {
			for setting, want := range bySetting {
				got := e.Workloads[name].Settings[setting].Methods[method].Maximal
				if !sameSubsets(got, want) {
					return fmt.Errorf("%s %s %s: maximal subsets %v, the paper has %v", name, setting, method, got, want)
				}
			}
		}
	}
	for _, a := range e.AuctionN {
		edges, cf := experiments.ExpectedAuctionNEdges(a.N)
		if !a.Robust || a.Edges != edges || a.Counterflow != cf {
			return fmt.Errorf("Auction(%d): robust=%v with %d edges (%d counterflow), want robust with %d (%d)",
				a.N, a.Robust, a.Edges, a.Counterflow, edges, cf)
		}
	}
	return nil
}

// sameSubsets compares two subset lists as sets of sorted name lists.
func sameSubsets(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(s []string) string {
		c := slices.Clone(s)
		sort.Strings(c)
		return strings.Join(c, ",")
	}
	seen := make(map[string]bool, len(a))
	for _, s := range a {
		seen[key(s)] = true
	}
	for _, s := range b {
		if !seen[key(s)] {
			return false
		}
	}
	return true
}

// LoadExpected reads the embedded answer key, derives the per-mask
// verdict tables and cross-checks the paper's goldens.
func LoadExpected() (*Expected, error) {
	raw, err := testdata.ReadFile(expectedFile)
	if err != nil {
		return nil, err
	}
	var e Expected
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedFile, err)
	}
	for name, w := range e.Workloads {
		w.buildIndex()
		for setting, st := range w.Settings {
			for method, sub := range st.Methods {
				if sub.robustMask, err = robustMasks(sub, w); err != nil {
					return nil, fmt.Errorf("%s %s %s: %w", name, setting, method, err)
				}
			}
		}
	}
	if err := e.checkGoldens(); err != nil {
		return nil, fmt.Errorf("%s disagrees with the paper: %w", expectedFile, err)
	}
	return &e, nil
}

// buildIndex maps short names to mask bits; mask reads it concurrently.
func (w *ExpWorkload) buildIndex() {
	w.index = make(map[string]int, len(w.Programs))
	for i, p := range w.Programs {
		w.index[p] = i
	}
}

// mask turns short names into a subset mask over the workload's programs.
func (w *ExpWorkload) mask(names []string) (int, bool) {
	m := 0
	for _, n := range names {
		i, ok := w.index[n]
		if !ok {
			return 0, false
		}
		m |= 1 << i
	}
	return m, true
}

// names lists the short names a mask selects, in registration order.
func (w *ExpWorkload) names(mask int) []string {
	var out []string
	for i, p := range w.Programs {
		if mask&(1<<i) != 0 {
			out = append(out, p)
		}
	}
	return out
}

// --- regeneration ----------------------------------------------------------

// Regenerate rebuilds the answer key from the naive oracle and writes it
// to bench/testdata/expected.json under root, refusing to write a key
// that disagrees with the paper.
func Regenerate(root string) error {
	e := &Expected{MaxSchedules: certifyMaxSchedules, Workloads: map[string]*ExpWorkload{}}
	for _, name := range corpusBenchmarks {
		b, err := benchmarks.ByName(name, 1)
		if err != nil {
			return err
		}
		if e.Workloads[name], err = oracleWorkload(b.Schema, b.Programs); err != nil {
			return err
		}
	}
	for _, p := range patches {
		b, err := benchmarks.ByName(p.workload, 1)
		if err != nil {
			return err
		}
		even, err := patchedPrograms(b.Schema, b.Programs, p, 0)
		if err != nil {
			return err
		}
		if id := snapshot.Fingerprint(b.Schema, even); id != e.Workloads[p.workload].ID {
			return fmt.Errorf("%s: even variant of %s changes the workload (%s vs %s)", p.workload, p.program, id, e.Workloads[p.workload].ID)
		}
		odd, err := patchedPrograms(b.Schema, b.Programs, p, 1)
		if err != nil {
			return err
		}
		w, err := oracleWorkload(b.Schema, odd)
		if err != nil {
			return err
		}
		w.ID = e.Workloads[p.workload].ID // a PATCH keeps the registration id
		if sameAnswers(w, e.Workloads[p.workload]) {
			return fmt.Errorf("%s: odd variant of %s changes no answer, so version parity would go unverified", p.workload, p.program)
		}
		e.Workloads[variantKey(p.workload, 1)] = w
	}
	for _, n := range auctionNs {
		b := benchmarks.AuctionN(n)
		res := robust.NewChecker(b.Schema).CheckLTPs(btp.UnfoldAll(b.Programs, btp.DefaultUnfoldBound))
		st := res.Graph.Stats()
		e.AuctionN = append(e.AuctionN, ExpAuctionN{
			N: n, ID: snapshot.Fingerprint(b.Schema, b.Programs), Programs: len(b.Programs),
			Robust: res.Robust, Edges: st.Edges, Counterflow: st.CounterflowEdges,
		})
	}
	for _, d := range corpusDialects {
		for _, name := range corpusBenchmarks {
			file := filepath.Join(d, name+".sql")
			src, err := os.ReadFile(filepath.Join(root, corpusDir, file))
			if err != nil {
				return err
			}
			wl, err := sqlbtp.Compile(sqlbtp.Source{Dialect: d, Script: string(src)})
			if err != nil {
				return fmt.Errorf("%s: %w", file, err)
			}
			if id := snapshot.Fingerprint(wl.Schema, wl.Programs); id != e.Workloads[name].ID {
				return fmt.Errorf("%s compiles to workload %s, not %s's %s", file, id, name, e.Workloads[name].ID)
			}
			e.Corpus = append(e.Corpus, ExpCorpus{File: filepath.ToSlash(file), Dialect: d, Workload: name})
		}
	}
	for _, p := range patches {
		cores, err := oracleCores(p.workload, e.Workloads[p.workload])
		if err != nil {
			return err
		}
		e.Cores = append(e.Cores, cores...)
	}
	if err := e.checkGoldens(); err != nil {
		return fmt.Errorf("naive oracle disagrees with the paper: %w", err)
	}
	var buf bytes.Buffer
	if err := wire.WriteJSON(&buf, e); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", expectedFile), buf.Bytes(), 0o644)
}

// corpusDir is the nine-file SQL corpus, relative to the repository root.
const corpusDir = "internal/sqlbtp/testdata"

// oracleWorkload runs the naive oracle over every setting, method and
// subset of the programs.
func oracleWorkload(schema *relschema.Schema, programs []*btp.Program) (*ExpWorkload, error) {
	w := &ExpWorkload{ID: snapshot.Fingerprint(schema, programs), Settings: map[string]*ExpSetting{}}
	for _, p := range programs {
		w.Programs = append(w.Programs, p.ShortName())
	}
	w.buildIndex()
	n := len(programs)
	for _, setting := range summary.AllSettings {
		st := &ExpSetting{
			Edges: make([]int, 1<<n), Counterflow: make([]int, 1<<n),
			Methods: map[string]*ExpSubsets{},
		}
		for _, method := range methods {
			c := robust.NewChecker(schema)
			c.Setting = setting
			c.Method, _ = wire.ParseMethod(method)
			rep, err := c.NaiveRobustSubsets(programs)
			if err != nil {
				return nil, err
			}
			st.Methods[method] = &ExpSubsets{Robust: toWire(rep.Robust), Maximal: toWire(rep.Maximal)}
		}
		c := robust.NewChecker(schema)
		c.Setting = setting
		for mask := 1; mask < 1<<n; mask++ {
			var subset []*btp.Program
			for i, p := range programs {
				if mask&(1<<i) != 0 {
					subset = append(subset, p)
				}
			}
			gs := c.CheckLTPs(btp.UnfoldAll(subset, btp.DefaultUnfoldBound)).Graph.Stats()
			st.Edges[mask], st.Counterflow[mask] = gs.Edges, gs.CounterflowEdges
		}
		w.Settings[wire.SettingName(setting)] = st
	}
	return w, nil
}

func toWire(subsets []analysis.Subset) [][]string {
	out := make([][]string, len(subsets))
	for i, s := range subsets {
		out[i] = []string(s)
	}
	return out
}

// sameAnswers reports whether two oracle runs agree on every answer.
func sameAnswers(a, b *ExpWorkload) bool {
	x, _ := json.Marshal(a.Settings)
	y, _ := json.Marshal(b.Settings)
	return bytes.Equal(x, y)
}

// patchedPrograms applies the PATCH variant of a version to programs.
func patchedPrograms(schema *relschema.Schema, programs []*btp.Program, p patchSpec, version uint64) ([]*btp.Program, error) {
	_, out, err := patchProgram(schema, programs, p.program, p.sql(version))
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", p.workload, p.files[version%2], err)
	}
	return out, nil
}

// patchProgram applies a PATCH the way the server does: parse the embedded
// SQL, validate it, inherit the old abbreviation and replace the named
// program in place. It returns the replaced program and the new list.
func patchProgram(schema *relschema.Schema, programs []*btp.Program, name, sql string) (*btp.Program, []*btp.Program, error) {
	i := slices.IndexFunc(programs, func(q *btp.Program) bool { return q.Name == name })
	if i < 0 {
		return nil, nil, fmt.Errorf("no program %q", name)
	}
	next, err := sqlbtp.ParseProgram(schema, sql)
	if err != nil {
		return nil, nil, err
	}
	old := programs[i]
	if next.Name != old.Name {
		return nil, nil, fmt.Errorf("PROGRAM name %q does not match patched program %q", next.Name, old.Name)
	}
	if err := next.Validate(schema); err != nil {
		return nil, nil, err
	}
	if next.Abbrev == "" {
		next.Abbrev = old.Abbrev
	}
	out := slices.Clone(programs)
	out[i] = next
	return old, out, nil
}

// oracleCores lists the minimal non-robust type2 subsets of a workload per
// setting, with the status a bounded certification reaches on each.
func oracleCores(name string, w *ExpWorkload) ([]ExpCore, error) {
	b, err := benchmarks.ByName(name, 1)
	if err != nil {
		return nil, err
	}
	var out []ExpCore
	for _, setting := range settingNames() {
		robustMask, err := robustMasks(w.Settings[setting].Methods["type2"], w)
		if err != nil {
			return nil, err
		}
		cfg := analysis.Config{Method: summary.TypeII, Parallelism: 1}
		cfg.Setting, _ = wire.ParseSetting(setting)
		sess := analysis.NewSession(b.Schema)
		for mask := 1; mask < len(robustMask); mask++ {
			if robustMask[mask] || !allProperSubsetsRobust(mask, robustMask) {
				continue
			}
			var subset []*btp.Program
			for i, p := range b.Programs {
				if mask&(1<<i) != 0 {
					subset = append(subset, p)
				}
			}
			res, err := certify.Subset(context.Background(), sess, cfg, subset,
				certify.Options{MaxSchedules: certifyMaxSchedules, Parallelism: 1})
			if err != nil {
				return nil, fmt.Errorf("%s %s certify %v: %w", name, setting, w.names(mask), err)
			}
			core := w.names(mask)
			if !sameSubsets([][]string{res.Core}, [][]string{core}) {
				return nil, fmt.Errorf("%s %s: certify names core %v for minimal subset %v", name, setting, res.Core, core)
			}
			out = append(out, ExpCore{Workload: name, Setting: setting, Programs: core, Status: res.Status.String()})
		}
	}
	return out, nil
}

// robustMasks derives the per-mask verdicts of a subset report.
func robustMasks(sub *ExpSubsets, w *ExpWorkload) ([]bool, error) {
	out := make([]bool, 1<<len(w.Programs))
	for _, s := range sub.Robust {
		m, ok := w.mask(s)
		if !ok {
			return nil, fmt.Errorf("robust subset %v names unknown programs", s)
		}
		out[m] = true
	}
	return out, nil
}

// allProperSubsetsRobust reports whether removing any one program from the
// mask leaves a robust (or empty) subset: by monotonicity of
// non-robustness, that makes a non-robust mask a minimal core.
func allProperSubsetsRobust(mask int, robustMask []bool) bool {
	for bit := 1; bit <= mask; bit <<= 1 {
		if mask&bit != 0 && mask != bit && !robustMask[mask&^bit] {
			return false
		}
	}
	return true
}

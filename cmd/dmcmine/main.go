// Command dmcmine mines implication or similarity rules from a matrix
// file using any of the implemented engines, printing the rules (with
// labels when the data set has them) and the run statistics.
//
// Usage:
//
//	dmcmine -in news.dmb -mode imp -threshold 85
//	dmcmine -in dict.dmb -mode sim -threshold 70 -engine minhash
//	dmcmine -in wlog.dmb -mode imp -threshold 90 -engine apriori -top 25
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"dmc/internal/apriori"
	"dmc/internal/core"
	"dmc/internal/matrix"
	"dmc/internal/minhash"
	"dmc/internal/rules"
	"dmc/internal/stream"
)

func main() {
	var (
		in        = flag.String("in", "", "input matrix file (.dmt or .dmb)")
		mode      = flag.String("mode", "imp", "imp (implication rules) or sim (similarity rules)")
		threshold = flag.Int("threshold", 85, "confidence/similarity threshold in percent")
		engine    = flag.String("engine", "dmc", "dmc, apriori, naive, kmin (imp only), minhash or lsh (sim only)")
		order     = flag.String("order", "sparsest", "row order for dmc: sparsest, original, densest")
		top       = flag.Int("top", 50, "print at most this many rules, strongest first (0 = all)")
		stats     = flag.Bool("stats", true, "print run statistics")
		streaming = flag.Bool("stream", false, "mine from disk in two passes without loading the matrix (dmc engine only)")
		workers   = flag.Int("workers", 1, "parallel workers for the dmc engine (columns partitioned across them); 0 = one per CPU, 1 = serial")
		clusters  = flag.Bool("clusters", false, "in sim mode, also print the connected clusters of similar columns")
		groups    = flag.Bool("groups", false, "in imp mode, also print equivalence groups (mutually implying columns)")
		out       = flag.String("out", "", "also write the mined rules to this file (dmcrules reads it back)")
		minSup    = flag.Int("minsupport", 0, "also apply support pruning at this count (dmc and apriori engines)")
		ckptDir   = flag.String("checkpoint-dir", "", "with -stream: spill the density buckets here durably so an interrupted mine can -resume")
		resume    = flag.Bool("resume", false, "with -stream -checkpoint-dir: reuse a committed checkpoint instead of re-partitioning")
		memBudget = flag.Int("mem-budget", 0, "counter-memory budget in bytes for the dmc engine; on overflow the mine degrades to out-of-core streaming (0 = unbounded)")
		appendF   = flag.String("append", "", "basket file whose transactions are appended to -in before mining; the grown matrix is saved back to -in (dmc engine, resident mode)")
		snapshot  = flag.String("snapshot", "", "resumable counter-snapshot file: loaded when it matches the dataset (so only -append rows are counted and rules derive without a scan) and refreshed afterwards")
	)
	flag.Parse()
	// SIGINT/SIGTERM cancel the mine promptly through the pipelines'
	// interrupt polling; with -checkpoint-dir a committed partition
	// survives for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{
		in: *in, mode: *mode, threshold: *threshold, engine: *engine, order: *order,
		top: *top, stats: *stats, stream: *streaming, workers: *workers,
		clusters: *clusters, groups: *groups, out: *out, minSup: *minSup,
		ckptDir: *ckptDir, resume: *resume, memBudget: *memBudget,
		appendFile: *appendF, snapshot: *snapshot, ctx: ctx,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dmcmine:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	in         string
	mode       string
	threshold  int
	engine     string
	order      string
	top        int
	stats      bool
	stream     bool
	workers    int
	clusters   bool
	groups     bool
	out        string
	minSup     int
	ckptDir    string
	resume     bool
	memBudget  int
	appendFile string
	snapshot   string
	ctx        context.Context
}

func run(cfg runConfig) error {
	in, mode, threshold, engine, order := cfg.in, cfg.mode, cfg.threshold, cfg.engine, cfg.order
	top, stats := cfg.top, cfg.stats
	if in == "" {
		return fmt.Errorf("missing -in")
	}
	th := core.FromPercent(threshold)
	if cfg.ckptDir == "" && cfg.resume {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if cfg.ckptDir != "" && !cfg.stream {
		return fmt.Errorf("-checkpoint-dir requires -stream")
	}
	if cfg.appendFile != "" || cfg.snapshot != "" {
		if cfg.stream {
			return fmt.Errorf("-append and -snapshot need the resident path, not -stream")
		}
		if engine != "dmc" {
			return fmt.Errorf("-append and -snapshot support only the dmc engine")
		}
	}
	if cfg.stream {
		if engine != "dmc" {
			return fmt.Errorf("-stream supports only the dmc engine")
		}
		return runStream(cfg, th)
	}
	m, err := matrix.Load(in)
	if err != nil {
		return err
	}
	var inc *core.Incremental
	if cfg.appendFile != "" || cfg.snapshot != "" {
		if m, inc, err = applyIncremental(m, cfg); err != nil {
			return err
		}
	}
	fmt.Println(matrix.Describe(in, m))

	var opts core.Options
	opts.MinSupport = cfg.minSup
	opts.Ctx = cfg.ctx
	opts.MemBudgetBytes = cfg.memBudget
	switch order {
	case "sparsest":
		opts.Order = core.OrderSparsestFirst
	case "original":
		opts.Order = core.OrderOriginal
	case "densest":
		opts.Order = core.OrderDensestFirst
	default:
		return fmt.Errorf("unknown -order %q", order)
	}

	switch mode {
	case "imp":
		var rs []rules.Implication
		var report string
		switch engine {
		case "dmc":
			if inc != nil {
				rs = inc.Implications(th, core.Options{MinSupport: cfg.minSup})
				report = incStats(inc)
				break
			}
			var st core.Stats
			rs, st, err = mineResident(m, th, opts, cfg, core.DMCImpParallel, stream.MineImplicationsCfg)
			if err != nil {
				return err
			}
			report = dmcStats(st)
		case "apriori":
			var st apriori.Stats
			rs, st = apriori.Implications(m, th, apriori.Options{MinSupport: cfg.minSup})
			report = fmt.Sprintf("total %v, %d pair counters (%d bytes)", st.Total, st.PairCounters, st.PeakCounterBytes)
		case "kmin":
			var st minhash.Stats
			rs, st = minhash.KMinImplications(m, th, minhash.Options{})
			report = fmt.Sprintf("total %v, %d candidates verified (note: K-Min can miss rules)", st.Total, st.NumCandidates)
		case "naive":
			rs = core.NaiveImplications(m, th)
		default:
			return fmt.Errorf("unknown -engine %q for imp", engine)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Confidence() > rs[j].Confidence() })
		fmt.Printf("%d implication rules at >= %d%% confidence\n", len(rs), threshold)
		for i, r := range rs {
			if top > 0 && i == top {
				fmt.Printf("... and %d more\n", len(rs)-top)
				break
			}
			fmt.Println("  " + r.Label(m))
		}
		if stats && report != "" {
			fmt.Println(report)
		}
		if cfg.groups {
			printGroups(rs, m)
		}
		if cfg.out != "" {
			if err := writeRuleFile(cfg.out, func(w *os.File) error { return rules.WriteImplications(w, rs) }); err != nil {
				return err
			}
		}
	case "sim":
		var rs []rules.Similarity
		var report string
		switch engine {
		case "dmc":
			if inc != nil {
				rs = inc.Similarities(th, core.Options{MinSupport: cfg.minSup})
				report = incStats(inc)
				break
			}
			var st core.Stats
			rs, st, err = mineResident(m, th, opts, cfg, core.DMCSimParallel, stream.MineSimilaritiesCfg)
			if err != nil {
				return err
			}
			report = dmcStats(st)
		case "apriori":
			var st apriori.Stats
			rs, st = apriori.Similarities(m, th, apriori.Options{MinSupport: cfg.minSup})
			report = fmt.Sprintf("total %v, %d pair counters (%d bytes)", st.Total, st.PairCounters, st.PeakCounterBytes)
		case "minhash":
			var st minhash.Stats
			rs, st = minhash.Similarities(m, th, minhash.Options{})
			report = fmt.Sprintf("total %v, %d candidates verified (note: Min-Hash can miss rules)", st.Total, st.NumCandidates)
		case "lsh":
			var st minhash.Stats
			rs, st = minhash.LSHSimilarities(m, th, minhash.LSHOptions{})
			report = fmt.Sprintf("total %v, %d candidates verified (note: LSH can miss rules)", st.Total, st.NumCandidates)
		case "naive":
			rs = core.NaiveSimilarities(m, th)
		default:
			return fmt.Errorf("unknown -engine %q for sim", engine)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Value() > rs[j].Value() })
		fmt.Printf("%d similarity rules at >= %d%% similarity\n", len(rs), threshold)
		for i, r := range rs {
			if top > 0 && i == top {
				fmt.Printf("... and %d more\n", len(rs)-top)
				break
			}
			fmt.Println("  " + r.Label(m))
		}
		if stats && report != "" {
			fmt.Println(report)
		}
		if cfg.clusters {
			printClusters(rs, m)
		}
		if cfg.out != "" {
			if err := writeRuleFile(cfg.out, func(w *os.File) error { return rules.WriteSimilarities(w, rs) }); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown -mode %q (want imp or sim)", mode)
	}
	return nil
}

// applyIncremental implements -append and -snapshot: resume the
// counter snapshot when it matches the dataset (or pay the one-time
// rebuild), fold in the appended rows, persist the grown matrix back to
// -in, and refresh the snapshot. The returned state derives exact rule
// sets for any threshold without another scan.
func applyIncremental(m *matrix.Matrix, cfg runConfig) (*matrix.Matrix, *core.Incremental, error) {
	var inc *core.Incremental
	resumed := false
	if cfg.snapshot != "" {
		if f, err := os.Open(cfg.snapshot); err == nil {
			if s, derr := core.DecodeIncremental(f); derr == nil && s.Rows() == m.NumRows() {
				inc, resumed = s, true
			}
			f.Close()
		}
	}
	if inc == nil {
		inc = core.BuildIncremental(m)
	}
	if cfg.appendFile != "" {
		f, err := os.Open(cfg.appendFile)
		if err != nil {
			return nil, nil, err
		}
		grown, err := matrix.ExtendBaskets(m, f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		added := grown.NumRows() - m.NumRows()
		if added == 0 {
			return nil, nil, fmt.Errorf("%s holds no transactions to append", cfg.appendFile)
		}
		inc.AddMatrixRows(grown, m.NumRows())
		if err := matrix.Save(cfg.in, grown); err != nil {
			return nil, nil, err
		}
		verb := "rebuilt counters over"
		if resumed {
			verb = "resumed snapshot, counted only"
		}
		fmt.Printf("appended %d rows to %s (%s %d rows)\n", added, cfg.in, verb, added)
		m = grown
	}
	if cfg.snapshot != "" {
		f, err := os.Create(cfg.snapshot)
		if err != nil {
			return nil, nil, err
		}
		if err := inc.EncodeTo(f); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Close(); err != nil {
			return nil, nil, err
		}
	}
	return m, inc, nil
}

func incStats(inc *core.Incremental) string {
	return fmt.Sprintf("incremental derivation from %d pair counters (%d bytes), no scan",
		inc.Pairs(), inc.CounterBytes())
}

// mineResident runs one of the in-memory dmc miners under the CLI's
// context and memory budget. A budget overflow is not fatal: the loaded
// matrix is spilled and re-mined out of core (stream.MineResident, the
// degrade rung dmcserve shares), returning the identical rule set.
func mineResident[R any](m *matrix.Matrix, th core.Threshold, opts core.Options, cfg runConfig,
	mine func(*matrix.Matrix, core.Threshold, core.Options, int) ([]R, core.Stats),
	file func(string, core.Threshold, core.Options, stream.Config) ([]R, core.Stats, error)) ([]R, core.Stats, error) {
	return stream.MineResident(m, "", func() ([]R, core.Stats, error) {
		var rs []R
		var st core.Stats
		err := core.CapturePass(func() { rs, st = mine(m, th, opts, cfg.workers) })
		var be *core.BudgetError
		if errors.As(err, &be) {
			fmt.Fprintf(os.Stderr, "dmcmine: counter memory %d bytes exceeds -mem-budget %d; degrading to streamed mining\n",
				be.Bytes, opts.MemBudgetBytes)
		}
		return rs, st, err
	}, func(path string) ([]R, core.Stats, error) {
		return file(path, th, opts, streamConfig(cfg))
	})
}

func dmcStats(st core.Stats) string {
	s := fmt.Sprintf("total %v (prescan %v, 100%%-phase %v, <100%%-phase %v, bitmap %v)\n",
		st.Total, st.Prescan, st.Phase100, st.PhaseLT, st.Bitmap)
	s += fmt.Sprintf("peak counter array %d bytes, %d candidates added, %d deleted dynamically",
		st.PeakCounterBytes, st.CandidatesAdded, st.CandidatesDeleted)
	if st.SwitchPos100 >= 0 || st.SwitchPosLT >= 0 {
		s += fmt.Sprintf("; bitmap switch at rows %d/%d", st.SwitchPos100, st.SwitchPosLT)
	}
	return s
}

// streamConfig builds the out-of-core engine configuration shared by
// -stream runs and budget-degraded resident mines: worker fan-out,
// cancellation context, and the durable checkpoint knobs.
func streamConfig(cfg runConfig) stream.Config {
	return stream.Config{
		Workers:       cfg.workers,
		Ctx:           cfg.ctx,
		CheckpointDir: cfg.ckptDir,
		Resume:        cfg.resume,
	}
}

// runStream mines straight from disk via the two-pass bucket spill
// path; only rule counts and stats are printed (labels would need the
// matrix in memory). -workers fans the replay passes out over the
// broadcast reader, mirroring the in-memory parallel engine.
func runStream(cfg runConfig, th core.Threshold) error {
	scfg := streamConfig(cfg)
	switch cfg.mode {
	case "imp":
		rs, st, err := stream.MineImplicationsCfg(cfg.in, th, core.Options{MinSupport: cfg.minSup, Ctx: cfg.ctx}, scfg)
		if err != nil {
			return err
		}
		fmt.Printf("%d implication rules at >= %d%% confidence (streamed)\n", len(rs), cfg.threshold)
		if cfg.stats {
			fmt.Println(dmcStats(st))
		}
		if cfg.out != "" {
			rules.SortImplications(rs)
			if err := writeRuleFile(cfg.out, func(w *os.File) error { return rules.WriteImplications(w, rs) }); err != nil {
				return err
			}
		}
	case "sim":
		rs, st, err := stream.MineSimilaritiesCfg(cfg.in, th, core.Options{MinSupport: cfg.minSup, Ctx: cfg.ctx}, scfg)
		if err != nil {
			return err
		}
		fmt.Printf("%d similarity rules at >= %d%% similarity (streamed)\n", len(rs), cfg.threshold)
		if cfg.stats {
			fmt.Println(dmcStats(st))
		}
		if cfg.out != "" {
			rules.SortSimilarities(rs)
			if err := writeRuleFile(cfg.out, func(w *os.File) error { return rules.WriteSimilarities(w, rs) }); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown -mode %q (want imp or sim)", cfg.mode)
	}
	return nil
}

// printClusters renders the §7 grouping of similarity rules.
func printClusters(rs []rules.Similarity, m *matrix.Matrix) {
	cls := rules.Clusters(rs)
	fmt.Printf("%d clusters of similar columns:\n", len(cls))
	for i, cl := range cls {
		if i == 20 {
			fmt.Printf("  ... and %d more\n", len(cls)-20)
			break
		}
		minQ, meanQ := rules.ClusterQuality(cl, rs)
		fmt.Printf("  [%d members, min %.2f mean %.2f]", len(cl), minQ, meanQ)
		for j, c := range cl {
			if j == 8 {
				fmt.Printf(" ...")
				break
			}
			fmt.Printf(" %s", m.Label(c))
		}
		fmt.Println()
	}
}

// printGroups renders the implication-side §7 grouping: strongly
// connected components of the rule graph.
func printGroups(rs []rules.Implication, m *matrix.Matrix) {
	groups := rules.EquivalenceGroups(rs)
	fmt.Printf("%d equivalence groups (mutually implying columns):\n", len(groups))
	for i, g := range groups {
		if i == 20 {
			fmt.Printf("  ... and %d more\n", len(groups)-20)
			break
		}
		fmt.Printf("  [%d members]", len(g))
		for j, c := range g {
			if j == 8 {
				fmt.Printf(" ...")
				break
			}
			fmt.Printf(" %s", m.Label(c))
		}
		fmt.Println()
	}
}

// writeRuleFile saves mined rules for later browsing.
func writeRuleFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("rules written to %s\n", path)
	return nil
}

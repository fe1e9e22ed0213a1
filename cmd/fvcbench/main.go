// Command fvcbench regenerates the paper's tables and figures and the
// repository's validation experiments (DESIGN.md E1–E18).
//
// Usage:
//
//	fvcbench [flags] <experiment>|all
//	fvcbench -list
//
// Flags:
//
//	-quick        shrink populations and trial counts (seconds, not minutes)
//	-seed N       master RNG seed (default 2012)
//	-trials N     override the per-cell Monte-Carlo trial count
//	-parallel N   cap worker goroutines (default GOMAXPROCS); applies to
//	              trial scheduling and grid sweeps alike, both of which
//	              run through the shared internal/sweep engine
//	-checkpoint D journal completed Monte-Carlo trials to D/<cell>.jsonl
//	              and resume from those journals on restart; a killed run
//	              re-executes only unfinished trials and the final tables
//	              are bit-identical to an uninterrupted run
//	-list         list registered experiments and exit
//
// Kernel benchmark harness (the repository's perf trajectory):
//
//	-kernelbench  run the per-point coverage-kernel micro-benchmarks
//	              instead of an experiment and print benchstat-compatible
//	              lines
//	-benchout F   also write the kernel benchmark results as JSON to F
//	              (ns/point, B/point, allocs/point per benchmark), e.g.
//	              BENCH_kernel.json
//	-benchtime D  minimum measuring time per kernel benchmark (default
//	              1s; "1x" runs a single small batch — the CI smoke mode)
//	-benchbaseline F
//	              compare against a committed baseline JSON (e.g.
//	              BENCH_kernel.json) and exit non-zero if any case's
//	              ns/point regresses by more than -benchmaxregress —
//	              the CI perf gate
//	-benchmaxregress R
//	              regression tolerance as a fraction (default 0.10,
//	              i.e. fail beyond +10% ns/point)
//	-batch M      which kernel execution paths to measure: "all"
//	              (default), "point" (point-at-a-time cases only), or
//	              "batch" (cell-sorted batch cases only) — the A/B
//	              profiling switch; incompatible with -benchbaseline,
//	              whose gate needs the full suite
//
// Profiling (usable with any experiment or -kernelbench):
//
//	-cpuprofile F write a CPU profile to F
//	-memprofile F write an allocation profile to F at exit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"fullview/internal/figures"
	"fullview/internal/kernelbench"
	"fullview/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fvcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fvcbench", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "shrink populations and trial counts")
		seed     = fs.Uint64("seed", 0, "master RNG seed (0 = default 2012)")
		trials   = fs.Int("trials", 0, "override per-cell trial count (0 = experiment default)")
		parallel = fs.Int("parallel", 0, "worker goroutines for trials and sweeps (0 = GOMAXPROCS)")
		ckptDir  = fs.String("checkpoint", "", "journal trial progress to this directory and resume from it")
		list     = fs.Bool("list", false, "list experiments and exit")

		kbench       = fs.Bool("kernelbench", false, "run the coverage-kernel micro-benchmarks")
		benchOut     = fs.String("benchout", "", "write kernel benchmark results as JSON to this file")
		benchTime    = fs.String("benchtime", "1s", "minimum measuring time per kernel benchmark (duration, or \"1x\" for a single batch)")
		benchBase    = fs.String("benchbaseline", "", "baseline JSON to compare against; regressions past -benchmaxregress fail the run")
		benchRegress = fs.Float64("benchmaxregress", 0.10, "ns/point regression tolerance vs -benchbaseline, as a fraction")
		benchBatch   = fs.String("batch", "all", "kernel paths to measure: all, point, or batch (A/B profiling)")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file at exit")

		showVersion = fs.Bool("version", false, "print version and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: fvcbench [flags] <experiment>|all")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(stdout, version.String("fvcbench"))
		return nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fvcbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fvcbench: memprofile:", err)
			}
		}()
	}

	if *kbench {
		return runKernelBench(stdout, *benchTime, *benchOut, *benchBase, *benchRegress, *benchBatch)
	}

	if *list {
		for _, e := range figures.All() {
			fmt.Fprintf(stdout, "%-10s %-4s %s\n", e.Name, e.ID, e.Description)
		}
		return nil
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one experiment name, got %d args", fs.NArg())
	}

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
	}
	opts := figures.Options{
		Seed:          *seed,
		Trials:        *trials,
		Parallelism:   *parallel,
		Quick:         *quick,
		CheckpointDir: *ckptDir,
	}
	name := fs.Arg(0)
	if name == "all" {
		return figures.RunAll(stdout, opts)
	}
	e, err := figures.Lookup(name)
	if err != nil {
		return fmt.Errorf("%w (use -list to see experiments)", err)
	}
	return e.Run(stdout, opts)
}

// runKernelBench executes the kernel micro-benchmark suite, prints
// benchstat-compatible lines, optionally writes the JSON report, and —
// with a baseline — enforces the regression gate.
func runKernelBench(stdout io.Writer, benchTime, benchOut, benchBase string, maxRegress float64, batchMode string) error {
	var target time.Duration
	switch benchTime {
	case "1x":
		target = 0 // a single batch per case — the CI smoke mode
	default:
		var err error
		target, err = time.ParseDuration(benchTime)
		if err != nil {
			return fmt.Errorf("benchtime: %w", err)
		}
	}
	var keep func(kernelbench.Case) bool
	switch batchMode {
	case "", "all":
	case "point":
		keep = func(c kernelbench.Case) bool { return c.PointsPerOp() == 1 }
	case "batch":
		keep = func(c kernelbench.Case) bool { return c.PointsPerOp() > 1 }
	default:
		return fmt.Errorf("batch: unknown mode %q (all, point, or batch)", batchMode)
	}
	if keep != nil && benchBase != "" {
		return fmt.Errorf("-batch %s cannot be combined with -benchbaseline: the gate needs the full suite (missing cases fail Compare)", batchMode)
	}
	report, err := kernelbench.RunFiltered(target, keep)
	if err != nil {
		return err
	}
	if err := report.WriteBenchstat(stdout); err != nil {
		return err
	}
	if benchOut != "" {
		f, err := os.Create(benchOut)
		if err != nil {
			return fmt.Errorf("benchout: %w", err)
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("benchout: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("benchout: %w", err)
		}
	}
	if benchBase == "" {
		return nil
	}
	bf, err := os.Open(benchBase)
	if err != nil {
		return fmt.Errorf("benchbaseline: %w", err)
	}
	baseline, err := kernelbench.ReadReport(bf)
	bf.Close()
	if err != nil {
		return fmt.Errorf("benchbaseline: %w", err)
	}
	deltas, err := kernelbench.Compare(baseline, report)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nvs %s (gate: +%.0f%% ns/point):\n", benchBase, 100*maxRegress)
	if err := kernelbench.WriteDeltas(stdout, deltas, maxRegress); err != nil {
		return err
	}
	regressed := 0
	for _, d := range deltas {
		if d.Regressed(maxRegress) {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d of %d kernel cases regressed more than %.0f%% vs %s",
			regressed, len(deltas), 100*maxRegress, benchBase)
	}
	return nil
}

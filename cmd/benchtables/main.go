// Command benchtables regenerates the paper's evaluation artifacts over
// the synthetic benchmark stand-ins:
//
//	benchtables -table 1          # Table I  (dataset statistics)
//	benchtables -table 2          # Table II (block statistics)
//	benchtables -table 3          # Table III (method comparison)
//	benchtables -table all        # everything
//	benchtables -ablations        # MinoanER ablation study
//	benchtables -blocking-study   # blocking strategies (purging vs meta-blocking)
//
// Absolute numbers differ from the paper (the substrates are synthetic
// stand-ins); the comparative shapes are the reproduction target.
// Performance is measured by the benchmark under bench/, not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"minoaner/internal/datagen"
	"minoaner/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")

	var (
		table         = flag.String("table", "all", "which table to regenerate: 1, 2, 3, or all")
		ablations     = flag.Bool("ablations", false, "run the MinoanER ablation study instead of the paper tables")
		blockingStudy = flag.Bool("blocking-study", false, "compare blocking strategies (purging vs meta-blocking) instead of the paper tables")
		seed          = flag.Int64("seed", 42, "dataset generator seed")
		scale         = flag.Float64("scale", 1.0, "dataset size multiplier")
		methods       = flag.String("methods", "", "comma-separated subset of methods for table 3 (default: all)")
		timing        = flag.Bool("timing", true, "print per-step wall-clock timings to stderr")
	)
	flag.Parse()

	start := time.Now()
	datasets, err := experiments.Datasets(datagen.Options{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "datasets generated in %v\n", time.Since(start).Round(time.Millisecond))
	}

	if *ablations {
		t0 := time.Now()
		if err := experiments.AblationTable(datasets).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "ablations in %v\n", time.Since(t0).Round(time.Millisecond))
		}
		return
	}
	if *blockingStudy {
		t0 := time.Now()
		if err := experiments.BlockingStrategyTable(datasets).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "blocking study in %v\n", time.Since(t0).Round(time.Millisecond))
		}
		return
	}

	want := func(n string) bool { return *table == "all" || *table == n }
	if want("1") {
		if err := experiments.TableI(datasets).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if want("2") {
		t0 := time.Now()
		if err := experiments.TableII(datasets).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if *timing {
			fmt.Fprintf(os.Stderr, "table II in %v\n", time.Since(t0).Round(time.Millisecond))
		}
	}
	if want("3") {
		selected := experiments.Methods()
		if *methods != "" {
			keep := map[string]bool{}
			for _, m := range strings.Split(*methods, ",") {
				keep[strings.TrimSpace(m)] = true
			}
			var filtered []experiments.Method
			for _, m := range selected {
				if keep[m.Name] {
					filtered = append(filtered, m)
				}
			}
			if len(filtered) == 0 {
				log.Fatalf("no methods matched %q", *methods)
			}
			selected = filtered
		}
		t0 := time.Now()
		results := experiments.RunMethods(datasets, selected)
		if err := experiments.TableIII(datasets, results).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "table III in %v\n", time.Since(t0).Round(time.Millisecond))
		}
	}
}

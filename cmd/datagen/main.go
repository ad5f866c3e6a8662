// Command datagen generates the procedural datasets, prints heterogeneity
// statistics, and optionally exports image corpora in MNIST's IDX format.
//
// Examples:
//
//	datagen -dataset synthetic -devices 100 -stats
//	datagen -dataset digits -samples 600 -idx-out ./digits
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"fedproxvr/internal/data"
	"fedproxvr/internal/metrics"
)

func main() {
	var (
		dataset = flag.String("dataset", "synthetic", "synthetic | digits | fashion")
		devices = flag.Int("devices", 100, "device count (synthetic/partition stats)")
		samples = flag.Int("samples", 300, "image samples per class")
		alpha   = flag.Float64("alpha", 1, "synthetic α (FedProx's model heterogeneity): shifts every class's logit alike, so it changes no sample")
		beta    = flag.Float64("beta", 1, "synthetic feature heterogeneity β")
		seed    = flag.Int64("seed", 2020, "generation seed")
		stats   = flag.Bool("stats", true, "print per-device statistics")
		idxOut  = flag.String("idx-out", "", "write <prefix>-images.idx / <prefix>-labels.idx (image datasets)")
	)
	flag.Parse()

	switch *dataset {
	case "synthetic":
		part, test := data.GenerateSynthetic(data.SyntheticConfig{
			NumDevices: *devices, Alpha: *alpha, Beta: *beta,
			MinSamples: 37, MaxSamples: 3277, Seed: *seed,
		})
		if *stats {
			fmt.Println("training shards (each device's 75 %; the other 25 % is the test set):")
			printPartitionStats(part)
		}
		if test != nil {
			fmt.Printf("test set: %d samples held out of all devices\n", test.N())
		}
	case "digits", "fashion":
		style := data.StyleDigits
		if *dataset == "fashion" {
			style = data.StyleFashion
		}
		gen := data.NewImageGenerator(data.ImageConfig{Style: style, Seed: *seed})
		ds := gen.Generate(*samples*10, 0)
		fmt.Printf("%s: %d samples, %d classes, dim %d\n", *dataset, ds.N(), ds.NumClasses, ds.Dim)
		if *idxOut != "" {
			img := *idxOut + "-images.idx"
			lbl := *idxOut + "-labels.idx"
			if err := data.WriteIDX(ds, img, lbl); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s and %s\n", img, lbl)
		}
		if *stats {
			part, err := data.PartitionByLabel(ds, data.PartitionConfig{
				NumDevices: *devices, MinSamples: 40, MaxSamples: 400, Seed: *seed,
			})
			if err != nil {
				fatal(err)
			}
			printPartitionStats(part)
		}
	default:
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}
}

func printPartitionStats(p *data.Partition) {
	sizes := make([]int, len(p.Clients))
	for i, c := range p.Clients {
		sizes[i] = c.N()
	}
	sort.Ints(sizes)
	min, max := p.SizeRange()
	fmt.Printf("devices: %d, total samples: %d, sizes [%d, %d], median %d\n",
		len(p.Clients), p.TotalSamples(), min, max, sizes[len(sizes)/2])
	rows := make([][]string, 0, 10)
	show := len(p.Clients)
	if show > 10 {
		show = 10
	}
	for i := 0; i < show; i++ {
		labels := data.DistinctLabels(p.Clients[i])
		rows = append(rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", p.Clients[i].N()),
			fmt.Sprintf("%v", labels),
		})
	}
	if err := metrics.Table(os.Stdout, []string{"device", "samples", "labels"}, rows); err != nil {
		fatal(err)
	}
	if len(p.Clients) > show {
		fmt.Printf("… and %d more devices\n", len(p.Clients)-show)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}

// Command dimboost-train trains a GBDT model from a LibSVM file, either on
// a single machine or across an in-process parameter-server cluster.
//
// Usage:
//
//	dimboost-train -data train.libsvm -model model.bin -trees 50 -depth 7
//	dimboost-train -data train.libsvm -model model.bin -workers 8 -servers 8
//	dimboost-train -data train.bin -model model.bin -mem-budget 256MiB
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"dimboost"
	"dimboost/internal/obs"
)

// loadData reads LibSVM or binary data, picking the format by extension
// (.bin/.dimb = binary).
func loadData(path string, features int) (*dimboost.Dataset, error) {
	if strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".dimb") {
		return dimboost.ReadBinaryFile(path)
	}
	return dimboost.ReadLibSVMFile(path, features)
}

func main() {
	var (
		data     = flag.String("data", "", "training data in LibSVM format (required)")
		model    = flag.String("model", "model.bin", "output model file")
		features = flag.Int("features", 0, "feature count (0 infers from data)")
		trees    = flag.Int("trees", 20, "number of trees (T)")
		depth    = flag.Int("depth", 7, "maximal tree depth (d)")
		cands    = flag.Int("cands", 20, "split candidates per feature (K)")
		lr       = flag.Float64("lr", 0.1, "learning rate (eta)")
		lambda   = flag.Float64("lambda", 1.0, "L2 regularization")
		gamma    = flag.Float64("gamma", 0.0, "per-leaf penalty")
		sample   = flag.Float64("feature-sample", 1.0, "feature sampling ratio (sigma)")
		lossName = flag.String("loss", "logistic", "objective: logistic | squared")
		par      = flag.Int("parallelism", 0, "training pool workers; model is bit-identical at any value (0 = GOMAXPROCS)")
		threads  = flag.Int("threads", 0, "deprecated alias for -parallelism")
		batch    = flag.Int("batch", 10000, "parallel build batch size (b)")
		seed     = flag.Int64("seed", 42, "random seed")
		workers  = flag.Int("workers", 0, "distributed worker count (0 = single process)")
		servers  = flag.Int("servers", 0, "parameter server count (default = workers)")
		bits     = flag.Uint("bits", 8, "compressed histogram bits (distributed; 0 = float32)")
		pullBits = flag.Uint("pull-bits", 0, "compact split records when nonzero, at a supported width (distributed; 0 = full records)")
		valFrac  = flag.Float64("validate", 0.1, "held-out fraction for the final report")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for per-tree checkpoints (distributed mode)")
		resume   = flag.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir")
		metrics  = flag.String("metrics-listen", "", "address for GET /metrics and /debug/obs during training (empty = disabled)")
		budget   = flag.String("mem-budget", "", "out-of-core training memory budget, e.g. 512MiB (requires binary -data; empty = in-memory)")
	)
	flag.Parse()
	if *data == "" {
		log.Fatal("-data is required")
	}
	memBudget, err := dimboost.ParseMemoryBudget(*budget)
	if err != nil {
		log.Fatalf("-mem-budget: %v", err)
	}
	if memBudget > 0 {
		if *workers > 0 {
			log.Fatal("-mem-budget applies to single-process training only (drop -workers)")
		}
		if !strings.HasSuffix(*data, ".bin") && !strings.HasSuffix(*data, ".dimb") {
			log.Fatal("-mem-budget requires -data in the chunked binary format (.bin/.dimb); convert LibSVM data with dimboost.WriteBinaryFile first")
		}
	}
	if *metrics != "" {
		addr, err := obs.Default().Serve(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", addr)
	}
	if *resume && *ckptDir == "" {
		log.Fatal("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" && *workers == 0 {
		log.Fatal("-checkpoint-dir requires distributed mode (-workers > 0)")
	}

	// Out-of-core mode never materializes the dataset, so there is no
	// held-out split to evaluate; everything on disk is training data.
	var train, test *dimboost.Dataset
	if memBudget == 0 {
		d, err := loadData(*data, *features)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %d rows × %d features (%.1f nnz/row)\n", d.NumRows(), d.NumFeatures, d.AvgNNZ())
		train, test = d.Split(1 - *valFrac)
	}

	cfg := dimboost.DefaultConfig()
	cfg.NumTrees = *trees
	cfg.MaxDepth = *depth
	cfg.NumCandidates = *cands
	cfg.LearningRate = *lr
	cfg.Lambda = *lambda
	cfg.Gamma = *gamma
	cfg.FeatureSampleRatio = *sample
	if *par == 0 {
		*par = *threads
	}
	cfg.Parallelism = *par
	cfg.BatchSize = *batch
	cfg.Seed = *seed
	cfg.MemoryBudget = memBudget
	switch *lossName {
	case "logistic":
		cfg.Loss = dimboost.Logistic
	case "squared":
		cfg.Loss = dimboost.Squared
	default:
		log.Fatalf("unknown loss %q", *lossName)
	}

	start := time.Now()
	var m *dimboost.Model
	if memBudget > 0 {
		m, err = dimboost.TrainOutOfCore(*data, cfg)
		var be *dimboost.BudgetError
		if errors.As(err, &be) {
			// A budget below one chunk's working set can never make
			// progress; fail fast with the smallest budget that can.
			log.Fatalf("%v", be)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("out-of-core: trained under a %s budget\n", memBudget)
	} else if *workers > 0 {
		p := *servers
		if p == 0 {
			p = *workers
		}
		ccfg := dimboost.DefaultClusterConfig(*workers, p)
		ccfg.Config = cfg
		ccfg.Bits = *bits
		ccfg.PullBits = *pullBits
		if *ckptDir != "" {
			sink, err := dimboost.NewDirCheckpointSink(*ckptDir)
			if err != nil {
				log.Fatal(err)
			}
			ccfg.Checkpoint = sink
			retry := dimboost.DefaultRetryPolicy()
			ccfg.Retry = &retry
			if *resume {
				ck, err := dimboost.LoadCheckpoint(*ckptDir)
				if err != nil {
					log.Fatal(err)
				}
				if ck != nil {
					ccfg.Resume = ck
					fmt.Printf("resuming from checkpoint: %d/%d trees done\n", ck.TreesDone, ccfg.NumTrees)
				} else {
					fmt.Println("no checkpoint found; starting from tree 0")
				}
			}
		}
		res, err := dimboost.TrainDistributed(train, ccfg)
		if err != nil {
			log.Fatal(err)
		}
		m = res.Model
		fmt.Printf("distributed: %d workers, %d servers, %d bytes moved (modeled comm %s)\n",
			*workers, p, res.Stats.TotalBytes, res.Stats.ModeledCommTime.Round(time.Millisecond))
	} else {
		m, err = dimboost.Train(train, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("trained %d trees in %s\n", len(m.Trees), time.Since(start).Round(time.Millisecond))

	if test != nil && test.NumRows() > 0 {
		preds := m.PredictBatch(test)
		if cfg.Loss == dimboost.Logistic {
			auc, _ := dimboost.AUC(test.Labels, preds)
			fmt.Printf("held-out: error %.4f  auc %.4f  logloss %.4f\n",
				dimboost.ErrorRate(test.Labels, preds), auc, dimboost.LogLoss(test.Labels, preds))
		} else {
			fmt.Printf("held-out: rmse %.4f\n", dimboost.RMSE(test.Labels, preds))
		}
	}
	if err := m.SaveFile(*model); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model saved to %s\n", *model)
}

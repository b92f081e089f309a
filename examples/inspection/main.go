// Command inspection demonstrates model analysis and training control:
// early stopping on a validation split, gain-based feature importance, the
// per-tree leaf transform, and the human-readable model dump.
package main

import (
	"fmt"
	"log"
	"os"

	"dimboost"
)

func main() {
	full := dimboost.Generate(dimboost.SyntheticConfig{
		NumRows:     15_000,
		NumFeatures: 2_000,
		AvgNNZ:      25,
		NoiseStd:    0.6,
		Zipf:        1.3,
		Seed:        9,
	})
	train, rest := full.Split(0.7)
	val, test := rest.Split(0.5)

	cfg := dimboost.DefaultConfig()
	cfg.NumTrees = 200 // early stopping decides the real count
	cfg.MaxDepth = 5
	cfg.LearningRate = 0.2
	cfg.EarlyStoppingRounds = 8
	cfg.InstanceSampleRatio = 0.8 // stochastic gradient boosting

	tr, err := dimboost.NewTrainer(train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tr.Validation = val
	model, err := tr.Train()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("early stopping kept %d of %d trees (best validation loss %.4f)\n",
		len(model.Trees), cfg.NumTrees, tr.BestValidationLoss)

	preds := model.PredictBatch(test)
	auc, _ := dimboost.AUC(test.Labels, preds)
	fmt.Printf("held-out: error %.4f  auc %.4f\n\n", dimboost.ErrorRate(test.Labels, preds), auc)

	fmt.Println("top 10 features by gain:")
	for i, fi := range model.Importance() {
		if i >= 10 {
			break
		}
		fmt.Printf("  f%-6d gain %8.2f  splits %d\n", fi.Feature, fi.Gain, fi.Splits)
	}

	internal, leaves := model.NumNodes()
	fmt.Printf("\nmodel size: %d internal nodes, %d leaves\n", internal, leaves)

	fmt.Printf("\nleaf transform of row 0 (leaf index per tree, first 8 trees): %v\n",
		model.PredictLeaves(test.Row(0))[:min(8, len(model.Trees))])

	fmt.Println("\nfirst tree:")
	one := &dimboost.Model{Loss: model.Loss, Trees: model.Trees[:1]}
	if err := one.Dump(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

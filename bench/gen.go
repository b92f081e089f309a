package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"dimboost/internal/dataset"
)

// File names of the generated inputs inside the run directory. exec sees
// nothing of the workload but these files.
const (
	trainFile  = "train.bin"
	validFile  = "valid.bin"
	bodiesFile = "bodies.jsonl"
	modelFile  = "model.bin"
)

// cmdGen writes one workload's inputs: the training set and the held-out
// 20% in the binary dataset format, and the pool of /predict request
// bodies. Its wall time, seen from the parent, is setup_s.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	scale := fs.Float64("scale", 1, "problem-size scale (1 = the benchmark)")
	dir := fs.String("dir", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	w = w.scaled(*scale)

	d, err := generate(w, *seed)
	if err != nil {
		return err
	}
	train, valid := d.Split(0.8)
	if err := dataset.WriteBinaryFile(filepath.Join(*dir, trainFile), train); err != nil {
		return err
	}
	if err := dataset.WriteBinaryFile(filepath.Join(*dir, validFile), valid); err != nil {
		return err
	}
	return writeBodies(filepath.Join(*dir, bodiesFile), valid, w.Instances)
}

// taskSeed fixes the ground-truth model of every workload. The run seed
// draws the rows; it must not redraw the task, or model quality and tree
// shapes (and with them valid_logloss and train_s) would differ between
// seeds by more than any change to the program could move them.
const taskSeed = 20180610

// generate draws a workload's dataset the way dataset.Generate shapes the
// paper's datasets — a share of each row's nonzeros on evenly spaced
// signal-bearing features, the rest Zipf- or uniformly distributed, labels
// from a logistic model over the signal features — but with the signal
// weights drawn from taskSeed instead of the run seed.
func generate(w workload, seed int64) (*dataset.Dataset, error) {
	const strongShare, noiseStd = 0.35, 0.5
	numStrong := min(max(w.Features/1000, 8), w.Features)
	task := rand.New(rand.NewSource(taskSeed))
	strong := make([]int32, numStrong)
	weight := make(map[int32]float64, numStrong)
	for i := range strong {
		strong[i] = int32(int64(i) * int64(w.Features) / int64(numStrong))
		weight[strong[i]] = task.NormFloat64() * 2
	}

	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if w.Zipf > 1 {
		zipf = rand.NewZipf(rng, w.Zipf, 1, uint64(w.Features-1))
	}
	b := dataset.NewBuilder(w.Features)
	seen := make(map[int32]struct{}, 2*w.NNZ)
	var idx []int32
	var val []float32
	norm := math.Sqrt(strongShare*float64(w.NNZ)) + 1
	for i := 0; i < w.Rows; i++ {
		nnz := min(w.NNZ/2+rng.Intn(w.NNZ+1), w.Features)
		clear(seen)
		idx, val = idx[:0], val[:0]
		for len(idx) < nnz {
			var f int32
			switch {
			case rng.Float64() < strongShare:
				f = strong[rng.Intn(numStrong)]
			case zipf != nil:
				f = int32(zipf.Uint64())
			default:
				f = int32(rng.Intn(w.Features))
			}
			if _, dup := seen[f]; !dup {
				seen[f] = struct{}{}
				idx = append(idx, f)
			}
		}
		slices.Sort(idx)
		score := 0.0
		for _, f := range idx {
			v := float32(math.Abs(rng.NormFloat64()) + 0.1)
			val = append(val, v)
			score += weight[f] * float64(v)
		}
		score = score/norm + rng.NormFloat64()*noiseStd
		var label float32
		if 1/(1+math.Exp(-score)) > rng.Float64() {
			label = 1
		}
		if err := b.Add(idx, val, label); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// bodyRow is the held-out row behind instance j of request body b. gen and
// exec share it, so exec can recompute every expected score from the model
// it trained without a side file.
func bodyRow(b, j, instances, validRows int) int {
	return (b*instances + j) % validRows
}

// writeBodies writes bodyPool distinct JSON /predict bodies, one per line.
func writeBodies(path string, valid *dataset.Dataset, instances int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for b := 0; b < bodyPool; b++ {
		buf = append(buf[:0], `{"instances":[`...)
		for j := 0; j < instances; j++ {
			if j > 0 {
				buf = append(buf, ',')
			}
			in := valid.Row(bodyRow(b, j, instances, valid.NumRows()))
			buf = append(buf, `{"indices":[`...)
			for k, idx := range in.Indices {
				if k > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, int64(idx), 10)
			}
			buf = append(buf, `],"values":[`...)
			for k, v := range in.Values {
				if k > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendFloat(buf, float64(v), 'g', -1, 32)
			}
			buf = append(buf, `]}`...)
		}
		buf = append(buf, "]}\n"...)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// readBodies loads the request bodies gen wrote.
func readBodies(path string) ([][]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bodies := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(bodies) != bodyPool {
		return nil, fmt.Errorf("%s: %d bodies, want %d", path, len(bodies), bodyPool)
	}
	return bodies, nil
}

package cluster

import (
	"errors"
	"fmt"

	"dimboost/internal/core"
	"dimboost/internal/dataset"
	"dimboost/internal/ps"
	"dimboost/internal/transport"
)

// Endpoint naming convention shared by the in-process driver and the
// multi-process (TCP) deployment.

// ServerName returns the canonical endpoint name of parameter server i.
func ServerName(i int) string { return fmt.Sprintf("server-%d", i) }

// WorkerName returns the canonical endpoint name of worker i.
func WorkerName(i int) string { return fmt.Sprintf("worker-%d", i) }

// ServeServer installs parameter-server shard id's handler on the endpoint.
// The process then serves until the endpoint closes.
func ServeServer(ep transport.Endpoint, id, numFeatures int, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	part, err := ps.NewPartition(numFeatures, cfg.NumServers, 0)
	if err != nil {
		return err
	}
	ep.Handle(ps.NewServer(id, part, cfg.ResolvedSketchEps()).Handler())
	return nil
}

// ServeMaster installs the barrier master on the endpoint.
func ServeMaster(ep transport.Endpoint, workers int) {
	ep.Handle(NewMaster(workers).Handler())
}

// WorkerResult is what one worker process produces.
type WorkerResult struct {
	Model  *core.Model
	Events []core.TreeEvent
	Times  core.PhaseTimes
}

// RunWorker executes worker id's training loop against an already-running
// master and server fleet reachable from ep by the canonical names. shard
// is this worker's row shard; numFeatures is the global dimensionality
// (identical on every node).
func RunWorker(ep transport.Endpoint, id int, shard *dataset.Dataset, numFeatures int, cfg Config) (*WorkerResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shard.NumFeatures != numFeatures {
		return nil, fmt.Errorf("cluster: shard has %d features, cluster agreed on %d", shard.NumFeatures, numFeatures)
	}
	if cfg.Resume != nil {
		if err := validateResume(cfg.Resume, cfg); err != nil {
			return nil, err
		}
	}
	part, err := ps.NewPartition(numFeatures, cfg.NumServers, 0)
	if err != nil {
		return nil, err
	}
	wk := newWorker(ep, id, shard, part, cfg)
	if err := wk.run(); err != nil {
		if aerr := abortMaster(ep, err.Error()); aerr != nil {
			err = errors.Join(err, fmt.Errorf("cluster: abort notification failed: %w", aerr))
		}
		return nil, err
	}
	return &WorkerResult{Model: wk.model, Events: wk.events, Times: wk.tr.Times}, nil
}

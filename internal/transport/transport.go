// Package transport provides the RPC substrate the DimBoost cluster runs
// on: named endpoints exchanging request/response messages. Two
// implementations exist — an in-memory network with per-node traffic
// metering (used by the in-process cluster runtime and the communication
// cost experiments) and a TCP network with length-prefixed frames for
// genuinely distributed processes (the role Netty plays in the paper's
// implementation, §7.1).
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Message is one RPC payload: an operation code plus an opaque wire-encoded
// body.
type Message struct {
	Op   uint8
	Body []byte
}

// Size returns the accounted wire size of the message.
func (m Message) Size() int64 { return int64(len(m.Body)) + 1 }

// Handler processes one incoming request and produces a response. Handlers
// run concurrently and must be safe for concurrent use; a handler may block
// (the master's barrier does). req.Body is only the handler's for the
// duration of the call — on the in-memory network it is the caller's own
// buffer — so a handler that keeps request bytes copies them.
type Handler func(from string, req Message) (Message, error)

// Endpoint is one named node on a network.
type Endpoint interface {
	// Name returns the endpoint's network-unique name.
	Name() string
	// Handle installs the request handler. It must be called before any
	// peer Calls this endpoint.
	Handle(h Handler)
	// Call sends a request to the named peer and waits for its response.
	// req.Body is not read after Call returns, so callers may reuse it.
	Call(to string, req Message) (Message, error)
	// Close releases the endpoint.
	Close() error
}

// Network creates endpoints that can reach each other by name.
type Network interface {
	// Endpoint registers a new named endpoint.
	Endpoint(name string) (Endpoint, error)
	// Close shuts down the network and all endpoints.
	Close() error
}

// Counter accumulates one node's traffic statistics.
type Counter struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
}

// Meter tracks per-node traffic for the communication cost model. All
// methods are safe for concurrent use.
type Meter struct {
	mu    sync.Mutex
	nodes map[string]*counter
}

type counter struct {
	bytesSent, bytesRecv atomic.Int64
	msgsSent, msgsRecv   atomic.Int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter { return &Meter{nodes: make(map[string]*counter)} }

func (m *Meter) node(name string) *counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.nodes[name]
	if c == nil {
		c = &counter{}
		m.nodes[name] = c
	}
	return c
}

// Record accounts one request/response exchange.
func (m *Meter) Record(from, to string, reqBytes, respBytes int64) {
	f, t := m.node(from), m.node(to)
	f.bytesSent.Add(reqBytes)
	f.bytesRecv.Add(respBytes)
	f.msgsSent.Add(1)
	t.bytesRecv.Add(reqBytes)
	t.bytesSent.Add(respBytes)
	t.msgsRecv.Add(1)
}

// Node returns the counters of one node.
func (m *Meter) Node(name string) Counter {
	c := m.node(name)
	return Counter{
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
	}
}

// Totals sums counters over every node. Because both directions of every
// exchange are recorded on both nodes, total bytes are double-counted
// relative to the wire; comparisons between strategies are unaffected.
func (m *Meter) Totals() Counter {
	m.mu.Lock()
	names := make([]string, 0, len(m.nodes))
	for n := range m.nodes {
		names = append(names, n)
	}
	m.mu.Unlock()
	var out Counter
	for _, n := range names {
		c := m.Node(n)
		out.BytesSent += c.BytesSent
		out.BytesRecv += c.BytesRecv
		out.MsgsSent += c.MsgsSent
		out.MsgsRecv += c.MsgsRecv
	}
	return out
}

// MaxPerNode returns the maxima over nodes, the quantities the cost model
// multiplies by β and α.
func (m *Meter) MaxPerNode() Counter {
	m.mu.Lock()
	names := make([]string, 0, len(m.nodes))
	for n := range m.nodes {
		names = append(names, n)
	}
	m.mu.Unlock()
	var out Counter
	for _, n := range names {
		c := m.Node(n)
		if c.BytesSent > out.BytesSent {
			out.BytesSent = c.BytesSent
		}
		if c.BytesRecv > out.BytesRecv {
			out.BytesRecv = c.BytesRecv
		}
		if c.MsgsSent > out.MsgsSent {
			out.MsgsSent = c.MsgsSent
		}
		if c.MsgsRecv > out.MsgsRecv {
			out.MsgsRecv = c.MsgsRecv
		}
	}
	return out
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes = make(map[string]*counter)
}

// Common errors.
var (
	ErrClosed          = errors.New("transport: endpoint closed")
	ErrUnknownEndpoint = errors.New("transport: unknown endpoint")
)

// MemNetwork is an in-process Network: calls invoke the target handler
// directly on the caller's goroutine. All traffic is metered.
type MemNetwork struct {
	mu        sync.RWMutex
	endpoints map[string]*memEndpoint
	meter     *Meter
	closed    bool
}

// NewMemNetwork returns an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{endpoints: make(map[string]*memEndpoint), meter: NewMeter()}
}

// Meter exposes the network's traffic meter.
func (n *MemNetwork) Meter() *Meter { return n.meter }

// Endpoint implements Network.
func (n *MemNetwork) Endpoint(name string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.endpoints[name]; dup {
		return nil, fmt.Errorf("transport: duplicate endpoint %q", name)
	}
	ep := &memEndpoint{name: name, net: n}
	n.endpoints[name] = ep
	return ep, nil
}

// Close implements Network. Endpoints created earlier are closed too, so a
// Call through a cached endpoint (or cached handler reference) fails with
// ErrClosed instead of silently succeeding against a dead network.
func (n *MemNetwork) Close() error {
	n.mu.Lock()
	eps := make([]*memEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.closed = true
	n.endpoints = make(map[string]*memEndpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		ep.closed = true
		ep.mu.Unlock()
	}
	return nil
}

type memEndpoint struct {
	name    string
	net     *MemNetwork
	mu      sync.RWMutex
	handler Handler
	closed  bool
}

func (e *memEndpoint) Name() string { return e.name }

func (e *memEndpoint) Handle(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

func (e *memEndpoint) Call(to string, req Message) (Message, error) {
	start := beginCall()
	resp, err := e.call(to, req)
	finishCall(start, err)
	return resp, err
}

func (e *memEndpoint) call(to string, req Message) (Message, error) {
	h, err := e.target(to)
	if err != nil {
		return Message{}, err
	}
	resp, err := h(e.name, req)
	if err != nil {
		return Message{}, err
	}
	e.net.meter.Record(e.name, to, req.Size(), resp.Size())
	return resp, nil
}

// target resolves the peer's handler, checking endpoint and network
// liveness.
func (e *memEndpoint) target(to string) (Handler, error) {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	e.net.mu.RLock()
	netClosed := e.net.closed
	target := e.net.endpoints[to]
	e.net.mu.RUnlock()
	if netClosed {
		return nil, ErrClosed
	}
	if target == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEndpoint, to)
	}
	target.mu.RLock()
	h := target.handler
	target.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("transport: endpoint %q has no handler", to)
	}
	return h, nil
}

// CallTimeout implements CallerWithTimeout. The handler runs on its own
// goroutine; on deadline expiry the caller gets a retryable ErrTimeout while
// the handler keeps running to completion — deliberately mirroring a real
// network's "response lost, side effects applied" hazard, which is what the
// ps layer's idempotent request tagging defends against.
func (e *memEndpoint) CallTimeout(to string, req Message, timeout time.Duration) (Message, error) {
	if timeout <= 0 {
		return e.Call(to, req)
	}
	start := beginCall()
	resp, err := e.callTimeout(to, req, timeout)
	finishCall(start, err)
	return resp, err
}

func (e *memEndpoint) callTimeout(to string, req Message, timeout time.Duration) (Message, error) {
	h, err := e.target(to)
	if err != nil {
		return Message{}, err
	}
	type result struct {
		resp Message
		err  error
	}
	done := make(chan result, 1)
	// The handler can outlive this call, and callers reuse a request's
	// buffer once Call has returned — so it gets a copy, as it would from a
	// real wire.
	req.Body = append([]byte(nil), req.Body...)
	go func() {
		resp, err := h(e.name, req)
		done <- result{resp, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-done:
		if r.err != nil {
			return Message{}, r.err
		}
		e.net.meter.Record(e.name, to, req.Size(), r.resp.Size())
		return r.resp, nil
	case <-timer.C:
		return Message{}, timeoutError(to)
	}
}

func (e *memEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.net.mu.Lock()
	delete(e.net.endpoints, e.name)
	e.net.mu.Unlock()
	return nil
}

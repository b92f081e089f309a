package transport

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemNetworkCloseClosesEndpoints: closing the network must close every
// endpoint it handed out. (Regression: endpoints used to keep succeeding
// through their cached handler references after net.Close.)
func TestMemNetworkCloseClosesEndpoints(t *testing.T) {
	net := NewMemNetwork()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	b.Handle(func(string, Message) (Message, error) { return Message{}, nil })
	if _, err := a.Call("b", Message{}); err != nil {
		t.Fatal(err)
	}
	net.Close()
	if _, err := a.Call("b", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call through closed network: err = %v, want ErrClosed", err)
	}
}

func TestIsRetryable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{ErrTimeout, true},
		{ErrUnavailable, true},
		{timeoutError("x"), true},
		{MarkRetryable(errors.New("wrapped")), true},
	} {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	if MarkRetryable(nil) != nil {
		t.Fatal("MarkRetryable(nil) must stay nil")
	}
}

// flakyHandler fails the first n calls with the given error.
func flakyHandler(n int, err error) (Handler, *atomic.Int64) {
	var calls atomic.Int64
	return func(string, Message) (Message, error) {
		if calls.Add(1) <= int64(n) {
			return Message{}, err
		}
		return Message{Op: 42}, nil
	}, &calls
}

func newRetryPair(t *testing.T, n int, failErr error, policy RetryPolicy) (*RetryEndpoint, *atomic.Int64, *[]time.Duration) {
	t.Helper()
	net := NewMemNetwork()
	t.Cleanup(func() { net.Close() })
	srv, _ := net.Endpoint("srv")
	h, calls := flakyHandler(n, failErr)
	srv.Handle(h)
	cl, _ := net.Endpoint("cl")
	re := NewRetryEndpoint(cl, policy)
	var slept []time.Duration
	re.sleep = func(d time.Duration) { slept = append(slept, d) }
	return re, calls, &slept
}

// A handler error marked retryable is retried with exponential backoff and
// eventually succeeds.
func TestRetryEndpointRecovers(t *testing.T) {
	re, calls, slept := newRetryPair(t, 3, MarkRetryable(errors.New("busy")), RetryPolicy{
		MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 35 * time.Millisecond, Jitter: 0,
	})
	resp, err := re.Call("srv", Message{Op: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Op != 42 || calls.Load() != 4 {
		t.Fatalf("resp %+v after %d calls", resp, calls.Load())
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond}
	if len(*slept) != len(want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	for i, d := range want {
		if (*slept)[i] != d {
			t.Fatalf("backoff %d = %v, want %v (capped doubling)", i, (*slept)[i], d)
		}
	}
}

// A plain handler error is fatal: one attempt, the error verbatim.
func TestRetryEndpointFatalPassthrough(t *testing.T) {
	re, calls, slept := newRetryPair(t, 100, errors.New("schema violation"), RetryPolicy{MaxAttempts: 5})
	_, err := re.Call("srv", Message{})
	if err == nil || !strings.Contains(err.Error(), "schema violation") {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("fatal error retried: %d calls, %d sleeps", calls.Load(), len(*slept))
	}
}

// Exhausting MaxAttempts surfaces the attempt count and the last error.
func TestRetryEndpointExhaustion(t *testing.T) {
	re, calls, _ := newRetryPair(t, 100, MarkRetryable(errors.New("still down")), RetryPolicy{MaxAttempts: 3})
	_, err := re.Call("srv", Message{})
	if err == nil || !strings.Contains(err.Error(), "3 attempts") || !strings.Contains(err.Error(), "still down") {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d calls, want 3", calls.Load())
	}
	// The aggregate error is itself retryable (the cause was transient).
	if !IsRetryable(err) {
		t.Fatal("exhaustion error should stay retryable")
	}
}

// TestMemCallTimeout: a deadline on the in-memory transport returns
// ErrTimeout while the handler keeps running — the "response lost, side
// effects applied" hazard the PS idempotency envelope exists for. The
// abandoned handler reads its own copy of the request: the caller's buffer
// is the caller's again the moment the call returns.
func TestMemCallTimeout(t *testing.T) {
	net := NewMemNetwork()
	defer net.Close()
	srv, _ := net.Endpoint("srv")
	release := make(chan struct{})
	done := make(chan struct{})
	var seen []byte
	srv.Handle(func(_ string, req Message) (Message, error) {
		<-release
		seen = append(seen, req.Body...)
		close(done)
		return Message{}, nil
	})
	cl, _ := net.Endpoint("cl")
	ct, ok := cl.(CallerWithTimeout)
	if !ok {
		t.Fatal("mem endpoint lost CallTimeout support")
	}
	body := []byte("first request")
	_, err := ct.CallTimeout("srv", Message{Body: body}, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) || !IsRetryable(err) {
		t.Fatalf("err = %v, want retryable ErrTimeout", err)
	}
	copy(body, "next  request") // the caller reuses its buffer
	close(release)              // the handler was still running; let it finish
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("handler did not keep running after the caller timed out")
	}
	if string(seen) != "first request" {
		t.Fatalf("abandoned handler read %q from a buffer the caller had taken back", seen)
	}
}

// TestTCPRetryableFlagCrossesWire: the retryable marking must survive the
// TCP error frame in both states.
func TestTCPRetryableFlagCrossesWire(t *testing.T) {
	a, _ := NewTCPEndpoint("a", "127.0.0.1:0")
	defer a.Close()
	b, _ := NewTCPEndpoint("b", "127.0.0.1:0")
	defer b.Close()
	a.AddPeer("b", b.Addr())
	b.Handle(func(_ string, req Message) (Message, error) {
		if req.Op == 1 {
			return Message{}, MarkRetryable(errors.New("transient"))
		}
		return Message{}, errors.New("permanent")
	})
	if _, err := a.Call("b", Message{Op: 1}); err == nil || !IsRetryable(err) {
		t.Fatalf("transient error lost its retryable flag: %v", err)
	}
	if _, err := a.Call("b", Message{Op: 2}); err == nil || IsRetryable(err) {
		t.Fatalf("permanent error gained a retryable flag: %v", err)
	}
}

// TestTCPCallTimeout: per-call deadlines on the TCP transport.
func TestTCPCallTimeout(t *testing.T) {
	a, _ := NewTCPEndpoint("a", "127.0.0.1:0")
	defer a.Close()
	b, _ := NewTCPEndpoint("b", "127.0.0.1:0")
	defer b.Close()
	a.AddPeer("b", b.Addr())
	release := make(chan struct{})
	defer close(release)
	b.Handle(func(string, Message) (Message, error) {
		<-release
		return Message{}, nil
	})
	_, err := a.CallTimeout("b", Message{}, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) || !IsRetryable(err) {
		t.Fatalf("err = %v, want retryable ErrTimeout", err)
	}
}

// TestTCPDialFailureIsRetryable: a peer that is not listening yet is a
// transient condition.
func TestTCPDialFailureIsRetryable(t *testing.T) {
	a, _ := NewTCPEndpoint("a", "127.0.0.1:0")
	defer a.Close()
	b, _ := NewTCPEndpoint("b", "127.0.0.1:0")
	addr := b.Addr()
	b.Close() // nothing listens there anymore
	a.AddPeer("b", addr)
	_, err := a.Call("b", Message{})
	if err == nil || !errors.Is(err, ErrUnavailable) || !IsRetryable(err) {
		t.Fatalf("err = %v, want retryable ErrUnavailable", err)
	}
}

package memo

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
)

// newTest returns a cache counting into fresh instruments.
func newTest(capacity int) (*Cache[string, int], Counters) {
	ctr := Counters{Hits: new(obs.Counter), Misses: new(obs.Counter), Waits: new(obs.Counter)}
	return New[string, int]("memo: test", capacity, ctr), ctr
}

// value returns a build that yields v.
func value(v int) func() (int, error) {
	return func() (int, error) { return v, nil }
}

// waitFor polls cond until it holds or the test times out: the tests
// use it to know that a joiner has reached an in-flight entry.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// result is one Get's outcome, collected from a goroutine.
type result struct {
	val int
	hit bool
	err error
}

func goGet(ctx context.Context, c *Cache[string, int], key string, build func() (int, error)) <-chan result {
	out := make(chan result, 1)
	go func() {
		v, hit, err := c.Get(ctx, key, build)
		out <- result{v, hit, err}
	}()
	return out
}

// blockedBuild returns a build that signals started, then blocks until
// release delivers its outcome.
func blockedBuild(started chan<- struct{}, release <-chan result) func() (int, error) {
	return func() (int, error) {
		close(started)
		r := <-release
		return r.val, r.err
	}
}

// TestSingleFlight: concurrent Gets of one key run one build; every
// join counts as a hit and, having blocked, as a wait — in Stats and
// in the registry counters alike.
func TestSingleFlight(t *testing.T) {
	const n = 16
	c, ctr := newTest(8)
	var builds atomic.Int32
	started := make(chan struct{})
	release := make(chan result, 1)
	build := blockedBuild(started, release)
	counted := func() (int, error) { builds.Add(1); return build() }

	leader := goGet(context.Background(), c, "k", counted)
	<-started
	joins := make([]<-chan result, n-1)
	for i := range joins {
		joins[i] = goGet(context.Background(), c, "k", counted)
	}
	waitFor(t, "all joiners", func() bool { return c.Stats().Waits == n-1 })
	release <- result{val: 42}

	if r := <-leader; r.val != 42 || r.hit || r.err != nil {
		t.Errorf("leader = %+v, want 42, miss, no error", r)
	}
	for _, ch := range joins {
		if r := <-ch; r.val != 42 || !r.hit || r.err != nil {
			t.Errorf("joiner = %+v, want 42, hit, no error", r)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Errorf("builds = %d, want 1", got)
	}
	want := Stats{Hits: n - 1, Misses: 1, Waits: n - 1, Entries: 1}
	if st := c.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if ctr.Hits.Value() != n-1 || ctr.Misses.Value() != 1 || ctr.Waits.Value() != n-1 {
		t.Errorf("counters = %d/%d/%d, want %d/1/%d",
			ctr.Hits.Value(), ctr.Misses.Value(), ctr.Waits.Value(), n-1, n-1)
	}

	// A later Get is a plain hit: no build, no wait.
	if v, hit, err := c.Get(context.Background(), "k", value(0)); v != 42 || !hit || err != nil {
		t.Errorf("warm Get = %d, %v, %v; want 42, hit", v, hit, err)
	}
	if st := c.Stats(); st.Waits != n-1 || st.Hits != n {
		t.Errorf("stats after warm hit = %+v", st)
	}
}

// TestFailedBuildWithdrawn: a failing build is not memoized and does
// not occupy an entry, and a joiner blocked on the failed leader
// retries and becomes the new leader.
func TestFailedBuildWithdrawn(t *testing.T) {
	c, _ := newTest(8)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, _, err := c.Get(context.Background(), "k", func() (int, error) { return 0, boom }); err != boom {
			t.Fatalf("Get = %v, want boom", err)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 0 entries, 2 misses (each failing call rebuilds)", st)
	}

	started := make(chan struct{})
	release := make(chan result, 1)
	leader := goGet(context.Background(), c, "j", blockedBuild(started, release))
	<-started
	var joinerBuilt atomic.Bool
	joiner := goGet(context.Background(), c, "j", func() (int, error) {
		joinerBuilt.Store(true)
		return 7, nil
	})
	waitFor(t, "the joiner", func() bool { return c.Stats().Waits == 1 })
	release <- result{err: boom}

	if r := <-leader; r.err != boom {
		t.Errorf("leader err = %v, want boom", r.err)
	}
	if r := <-joiner; r.val != 7 || r.hit || r.err != nil {
		t.Errorf("joiner = %+v, want 7 as the new leader (miss)", r)
	}
	if !joinerBuilt.Load() {
		t.Error("joiner did not rebuild after the leader failed")
	}
	if v, hit, _ := c.Get(context.Background(), "j", value(0)); v != 7 || !hit {
		t.Errorf("retried value not memoized: %d, hit=%v", v, hit)
	}
}

// TestPanicWithdrawn is the regression test for a poisoned key: a
// panicking build must wake its joiners (who retry) and withdraw its
// entry, while the panic still reaches the leader's caller. Before the
// deferred settle, the entry stayed in flight forever and every later
// Get of the key blocked until its context expired.
func TestPanicWithdrawn(t *testing.T) {
	c, _ := newTest(8)
	started := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Get(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("build exploded")
		})
	}()
	<-started
	joiner := goGet(context.Background(), c, "k", value(9))
	waitFor(t, "the joiner", func() bool { return c.Stats().Waits == 1 })
	close(release)

	if p := <-recovered; p != "build exploded" {
		t.Errorf("leader recovered %v, want the build's panic", p)
	}
	select {
	case r := <-joiner:
		if r.val != 9 || r.hit || r.err != nil {
			t.Errorf("joiner = %+v, want 9 as the new leader", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner still blocked on the panicked entry")
	}

	// A panic with no joiners leaves no entry behind either.
	func() {
		defer func() { recover() }()
		c.Get(context.Background(), "p", func() (int, error) { panic("again") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v, hit, err := c.Get(ctx, "p", value(3)); v != 3 || hit || err != nil {
		t.Errorf("Get after panic = %d, %v, %v; want a fresh build", v, hit, err)
	}
}

// TestEviction: capacity bounds residency LRU-wise.
func TestEviction(t *testing.T) {
	c, _ := newTest(2)
	ctx := context.Background()
	for i, k := range []string{"a", "b", "c"} {
		if _, _, err := c.Get(ctx, k, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("entries = %d, want 2 after eviction", n)
	}
	// "a" was evicted (least recently used): refetching is a miss.
	if _, hit, _ := c.Get(ctx, "a", value(0)); hit {
		t.Error("evicted key hit")
	}
	// "c" stayed resident: refetching is a hit.
	if _, hit, _ := c.Get(ctx, "c", value(0)); !hit {
		t.Error("resident key missed")
	}
	if st := c.Stats(); st.Misses != 4 || st.Hits != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 4 misses, 1 hit, 2 entries", st)
	}
}

// TestEvictInFlight: evicting an in-flight entry is safe. Its joiners
// are still served, and a later failure of the evicted leader does
// not withdraw the newer entry that replaced it under the same key.
func TestEvictInFlight(t *testing.T) {
	c, _ := newTest(1)
	ctx := context.Background()

	started := make(chan struct{})
	release := make(chan result, 1)
	leader := goGet(ctx, c, "a", blockedBuild(started, release))
	<-started
	joiner := goGet(ctx, c, "a", value(0))
	waitFor(t, "the joiner", func() bool { return c.Stats().Waits == 1 })
	if _, _, err := c.Get(ctx, "b", value(2)); err != nil { // evicts in-flight "a"
		t.Fatal(err)
	}
	release <- result{val: 1}
	if r := <-leader; r.val != 1 || r.err != nil {
		t.Errorf("evicted leader = %+v, want 1", r)
	}
	if r := <-joiner; r.val != 1 || !r.hit {
		t.Errorf("joiner of evicted entry = %+v, want 1, hit", r)
	}
	if n := c.Len(); n != 1 {
		t.Errorf("entries = %d, want 1", n)
	}

	// Evicted leader fails after its key was rebuilt: the rebuilt
	// entry survives the withdrawal.
	started = make(chan struct{})
	release = make(chan result, 1)
	leader = goGet(ctx, c, "x", blockedBuild(started, release))
	<-started
	if _, _, err := c.Get(ctx, "b", value(2)); err != nil { // evicts in-flight "x"
		t.Fatal(err)
	}
	if v, hit, err := c.Get(ctx, "x", value(5)); v != 5 || hit || err != nil { // replaces it
		t.Fatalf("rebuild of x = %d, %v, %v", v, hit, err)
	}
	release <- result{err: errors.New("late failure")}
	if r := <-leader; r.err == nil {
		t.Error("evicted leader lost its error")
	}
	if v, hit, _ := c.Get(ctx, "x", value(0)); v != 5 || !hit {
		t.Errorf("x = %d, hit=%v after the stale withdrawal; want the rebuilt 5", v, hit)
	}
}

// TestCanceledWait: a ctx canceled while waiting on another caller's
// build surfaces as a *guard.CancelError under the cache's name, and
// the leader's value still lands for everyone else.
func TestCanceledWait(t *testing.T) {
	c, _ := newTest(8)
	started := make(chan struct{})
	release := make(chan result, 1)
	leader := goGet(context.Background(), c, "k", blockedBuild(started, release))
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	joiner := goGet(ctx, c, "k", value(0))
	waitFor(t, "the joiner", func() bool { return c.Stats().Waits == 1 })
	cancel()
	r := <-joiner
	var ce *guard.CancelError
	if !errors.As(r.err, &ce) || !errors.Is(r.err, context.Canceled) || ce.Context != "memo: test" {
		t.Errorf("err = %v, want *guard.CancelError(memo: test) wrapping context.Canceled", r.err)
	}
	if r.hit {
		t.Error("canceled wait reported a hit")
	}

	release <- result{val: 11}
	if r := <-leader; r.val != 11 || r.err != nil {
		t.Errorf("leader = %+v", r)
	}
	if v, hit, err := c.Get(context.Background(), "k", value(0)); v != 11 || !hit || err != nil {
		t.Errorf("after cancel: Get = %d, %v, %v; want the leader's 11", v, hit, err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Waits != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 wait", st)
	}
}

// TestCompletedIgnoresCanceledCtx: a completed entry is returned even
// to a caller whose ctx is already canceled — the answer does not
// depend on select's random choice.
func TestCompletedIgnoresCanceledCtx(t *testing.T) {
	c, _ := newTest(8)
	if _, _, err := c.Get(context.Background(), "k", value(4)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		if v, hit, err := c.Get(ctx, "k", value(0)); v != 4 || !hit || err != nil {
			t.Fatalf("try %d: Get = %d, %v, %v; want 4, hit", i, v, hit, err)
		}
	}
	if st := c.Stats(); st.Waits != 0 {
		t.Errorf("waits = %d, want 0 (completed entries never wait)", st.Waits)
	}
}

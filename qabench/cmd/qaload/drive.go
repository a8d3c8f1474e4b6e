package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// senders is the number of sending goroutines, each with its own
// keep-alive connection: nproc on the 2-CPU reference host.
const senders = 2

// client is one sender's HTTP/1.1 client on its own keep-alive
// connection. It writes each request and parses the reply on the
// sender's goroutine (http.ReadResponse), without net/http's transport
// goroutines, so the generator takes less of the CPU it shares with
// qaserve.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  bytes.Buffer
}

func newClient(base string) *client { return &client{addr: strings.TrimPrefix(base, "http://")} }

func (c *client) post(path string, body []byte, auth bool) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	c.req.Reset()
	fmt.Fprintf(&c.req, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n", path, c.addr, len(body))
	if auth {
		c.req.WriteString("Authorization: Bearer " + updateToken + "\r\n")
	} else {
		c.req.WriteString("Content-Type: application/json\r\n")
	}
	c.req.WriteString("\r\n")
	c.req.Write(body)
	code, reply, err := c.roundTrip()
	if err != nil {
		c.close()
	}
	return code, reply, err
}

func (c *client) roundTrip() (int, []byte, error) {
	if _, err := c.conn.Write(c.req.Bytes()); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		c.close()
	}
	return resp.StatusCode, reply, err
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// tally is one sender's record of a phase; senders' tallies are merged
// after the phase.
type tally struct {
	readMS, updateMS, lateMS []float64
	reads                    int // completed in the measured window
	attempted, failed        int
	// wrong counts responses whose content is incorrect: an answer
	// that differs from its reference, an update that changed the wrong
	// number of triples, or a rejected update body.
	wrong    int
	served   map[int][]string // question index -> first served answers (answered only)
	answered map[int]bool     // question index -> served status was "answered"
	notes    []string
}

func newTally() *tally { return &tally{served: map[int][]string{}, answered: map[int]bool{}} }

func (t *tally) note(format string, args ...any) {
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.readMS = append(t.readMS, o.readMS...)
	t.updateMS = append(t.updateMS, o.updateMS...)
	t.lateMS = append(t.lateMS, o.lateMS...)
	t.reads += o.reads
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for q, a := range o.served {
		if _, ok := t.served[q]; !ok {
			t.served[q] = a
			t.answered[q] = o.answered[q]
		}
	}
	for _, n := range o.notes {
		t.note("%s", n)
	}
}

type answerReply struct {
	Status  string   `json:"status"`
	Answers []string `json:"answers"`
}

// read sends one question and checks the reply against its reference.
// It reports whether the request succeeded.
func (w *workload) read(c *client, t *tally, qi int) bool {
	q := &w.questions[qi]
	t.attempted++
	code, body, err := c.post("/v1/answer", q.body, false)
	if err != nil || code != http.StatusOK {
		t.failed++
		t.note("answer %q: status %d err %v", q.text, code, err)
		return false
	}
	var r answerReply
	if err := json.Unmarshal(body, &r); err != nil {
		t.failed++
		t.wrong++
		t.note("answer %q: undecodable reply: %v", q.text, err)
		return false
	}
	if _, ok := t.served[qi]; !ok {
		t.served[qi] = r.Answers
		t.answered[qi] = r.Status == "answered" && len(r.Answers) > 0
	}
	if !q.matches(r.Status, r.Answers) {
		t.failed++
		t.wrong++
		t.note("answer %q: served (%s %v), reference (%s %v)", q.text, r.Status, r.Answers, q.refStatus, q.refAnswers)
		return false
	}
	return true
}

// update sends one update and checks its outcome: a 200 must report
// exactly the op's triples added or removed. Any other outcome is a
// failed operation, and a rejected body is also wrong.
func update(c *client, t *tally, op *updateOp) bool {
	t.attempted++
	code, body, err := c.post("/v1/update", []byte(op.body), true)
	if err != nil {
		t.failed++
		t.note("update: %v", err)
		return false
	}
	switch {
	case code == http.StatusOK:
		var r struct{ Added, Removed int }
		if err := json.Unmarshal(body, &r); err != nil {
			t.failed++
			t.wrong++
			t.note("update: undecodable reply: %v", err)
			return false
		}
		want := [2]int{op.triples, 0}
		if op.del {
			want = [2]int{0, op.triples}
		}
		if [2]int{r.Added, r.Removed} != want {
			t.failed++
			t.wrong++
			t.note("update: changed (+%d -%d), want (+%d -%d)", r.Added, r.Removed, want[0], want[1])
			return false
		}
		return true
	case code == http.StatusBadRequest:
		t.failed++
		t.wrong++
		t.note("update rejected: %s\n%s", strings.TrimSpace(string(body)), op.body)
		return false
	default:
		t.failed++
		t.note("update: status %d: %s", code, strings.TrimSpace(string(body)))
		return false
	}
}

// updateChain sends a phase's updates strictly in stream order, so each
// pair's DELETE reaches the server after its INSERT: an update waits
// for its predecessor's reply before it is sent.
type updateChain struct {
	ops  []updateOp
	due  []time.Duration
	done []chan struct{}
	next atomic.Int64
}

// newUpdateChain chains ops. With rate > 0 (an open loop), op i is due
// i/rate after the phase starts.
func newUpdateChain(ops []updateOp, rate float64) *updateChain {
	ch := &updateChain{ops: ops, due: make([]time.Duration, len(ops)), done: make([]chan struct{}, len(ops))}
	for i := range ops {
		if rate > 0 {
			ch.due[i] = time.Duration(float64(i) / rate * float64(time.Second))
		}
		ch.done[i] = make(chan struct{})
	}
	return ch
}

// send sends update i at its due time once its predecessor has
// answered, recording its latency from the due time when it succeeds.
func (ch *updateChain) send(c *client, t *tally, due time.Time, i int) {
	sleepUntil(due)
	if i > 0 {
		<-ch.done[i-1]
	}
	if update(c, t, &ch.ops[i]) {
		t.updateMS = append(t.updateMS, ms(time.Since(due)))
	}
	close(ch.done[i])
}

// finish completes the pairs whose INSERT was sent: once every sender
// has stopped, it sends their DELETEs in stream order and drops the
// rest of the stream, so the KB returns to its starting size.
func (ch *updateChain) finish(c *client, t *tally) {
	cut := min(int(ch.next.Load()), len(ch.ops))
	open := map[int]bool{}
	for _, op := range ch.ops[:cut] {
		open[op.pair] = !op.del
	}
	for i := cut; i < len(ch.ops); i++ {
		if op := &ch.ops[i]; op.del && open[op.pair] {
			update(c, t, op)
			open[op.pair] = false
		}
	}
}

// sleepUntil blocks the sender until t with nanosleep(2). The
// runtime's timers wake goroutines on the network poller's millisecond
// ticks, which would add about half a millisecond to every open-loop
// send.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phase is one measured stretch of a run.
type phase struct {
	t        *tally
	elapsed  time.Duration
	behindMS float64 // how late the last open-loop op was sent
}

// runSenders runs fn on every sender and merges their tallies.
func runSenders(clients []*client, fn func(c *client, t *tally)) *tally {
	tallies := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		tallies[i] = newTally()
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			fn(c, t)
		}(c, tallies[i])
	}
	wg.Wait()
	out := newTally()
	for _, t := range tallies {
		out.merge(t)
	}
	return out
}

// closedLoop sends reads back to back from every sender for dur and
// counts those completed within it. With an update chain, every
// (w.readsPerUpdate()+1)-th op is the chain's next update instead of a
// read, so the share of reads that follow a commit, and find the answer
// cache invalidated, does not depend on how fast the server answers.
func (w *workload) closedLoop(clients []*client, cursor *atomic.Int64, dur time.Duration, ups *updateChain) phase {
	end := time.Now().Add(dur)
	var opNo atomic.Int64
	t := runSenders(clients, func(c *client, t *tally) {
		for time.Now().Before(end) {
			if ups != nil && opNo.Add(1)%int64(w.readsPerUpdate()+1) == 0 {
				if i := int(ups.next.Add(1) - 1); i < len(ups.ops) {
					ups.send(c, t, time.Now(), i)
					continue
				}
			}
			qi := w.reads[int(cursor.Add(1)-1)%len(w.reads)]
			if w.read(c, t, qi) && time.Now().Before(end) {
				t.reads++
			}
		}
	})
	if ups != nil {
		ups.finish(clients[0], t)
	}
	return phase{t: t, elapsed: dur}
}

// openLoop sends n reads at the fixed rate, each timed from its due
// time, with the update chain (when non-nil) merged into the same
// schedule. A sender takes the op due next, sleeps until its due time,
// and sends it; when both senders are busy, ops are sent late and the
// wait counts in their latency.
func (w *workload) openLoop(clients []*client, cursor *atomic.Int64, rate float64, n int, ups *updateChain) phase {
	type sched struct {
		due time.Duration
		upd int // index into ups, or -1 for a read
	}
	ops := make([]sched, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, sched{due: time.Duration(float64(i) / rate * float64(time.Second)), upd: -1})
	}
	if ups != nil {
		for i := range ups.ops {
			ops = append(ops, sched{due: ups.due[i], upd: i})
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	}
	first := int(cursor.Add(int64(n)) - int64(n))
	var next, readNo atomic.Int64
	var lastLate atomic.Int64
	start := time.Now()
	t := runSenders(clients, func(c *client, t *tally) {
		for {
			k := int(next.Add(1) - 1)
			if k >= len(ops) {
				return
			}
			op := ops[k]
			if op.upd >= 0 {
				ups.send(c, t, start.Add(ups.due[op.upd]), op.upd)
				continue
			}
			r := int(readNo.Add(1) - 1)
			qi := w.reads[(first+r)%len(w.reads)]
			due := start.Add(op.due)
			sleepUntil(due)
			late := time.Since(due)
			t.lateMS = append(t.lateMS, ms(late))
			if r == n-1 {
				lastLate.Store(int64(late))
			}
			if w.read(c, t, qi) {
				t.readMS = append(t.readMS, ms(time.Since(due)))
				t.reads++
			}
		}
	})
	return phase{t: t, elapsed: time.Since(start), behindMS: ms(time.Duration(lastLate.Load()))}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

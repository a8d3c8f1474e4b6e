package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/propmap"
	"repro/internal/qaserve"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/strsim"
	"repro/internal/triplex"
	"repro/internal/wal"
	"repro/internal/wordnet"
)

// The traced run replays a workload's inputs in-process through each
// layer's public entry point and records one span per call. Nothing is
// traced inside the program: a span brackets a call the benchmark
// makes, so a layer's span covers that whole call.

// span is one recorded layer call. Start and end are nanoseconds since
// the replay began; parent is -1 for a root. op is the replayed
// operation (read or update number), -1 for the standalone probes.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; they are written out at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) begin(name string, parent, op int32) int32 {
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: int64(time.Since(tr.t0))})
	return id
}

func (tr *tracer) end(id int32) { tr.spans[id].End = int64(time.Since(tr.t0)) }

// spanStats is the per-name aggregate: call count, total and self time
// (span time minus the part its children cover).
type spanStats struct {
	n           int
	total, self time.Duration
}

func (tr *tracer) stats() map[string]*spanStats {
	covered := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start // siblings run one after another
		}
	}
	out := map[string]*spanStats{}
	for i, s := range tr.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.n++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - covered[i])
	}
	return out
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Replay sizes: fixed operation counts, never a function of speed.
const (
	replayQALDReads    = 5000
	replayFactoidReads = 1500
	replayMixReads     = 2000
	replayProbeUpdates = 200
)

// stack is the in-process system the replay drives: the qaserve
// handler over one System, a twin System for the direct AnswerCtx
// calls, and the §2.1–§2.3 layers wired the way core.New wires them.
// The Systems share one KB (updates reach both through the WAL
// manager) and are configured as qaserve configures its own, except
// that each has a private plan cache of the default capacity, so
// neither warms the other's and both see the same cache outcomes.
type stack struct {
	k          *kb.KB
	handler    http.Handler
	sys        *core.System
	mapper     *propmap.Mapper
	extractor  *answer.Extractor
	plans      *sparql.PlanCache
	mgr        *wal.Manager
	walLog     string
	mem        *store.Store // in-memory copy the store layer replays on
	allocStore *store.Store // a second copy for the allocation pass
}

func newStack(workDir string) (*stack, error) {
	k := kb.Build(kb.DefaultConfig())
	cfg := core.DefaultConfig()
	cfg.KB = k
	cfg.CacheSize = 1024 // qaserve's -cache default
	cfg.PlanCacheSize = sparql.DefaultPlanCacheSize
	served, direct := core.New(cfg), core.New(cfg)
	dir, err := os.MkdirTemp(workDir, "replay-wal-")
	if err != nil {
		return nil, err
	}
	rec, err := wal.Recover(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	mgr, err := rec.Open(k.Store)
	if err != nil {
		return nil, err
	}
	srv := qaserve.New(qaserve.Config{Sys: served, RequestTimeout: 5 * time.Second, MaxInFlight: 64})
	return &stack{
		k: k, handler: srv.Handler(), sys: direct,
		mapper:    propmap.New(k, direct.WordNet, direct.Patterns, direct.Linker, propmap.DefaultConfig()),
		extractor: answer.New(k, answer.DefaultConfig()),
		plans:     sparql.NewPlanCache(sparql.DefaultPlanCacheSize),
		mgr:       mgr, walLog: filepath.Join(dir, wal.LogName),
		mem:        kb.Build(kb.DefaultConfig()).Store,
		allocStore: kb.Build(kb.DefaultConfig()).Store,
	}, nil
}

// layered is one question's pass through triplex → propmap → answer,
// with the outcome core's stages would record.
type layered struct {
	status  core.Status
	answers []rdf.Term
	ext     *triplex.Extraction
	mp      *propmap.Mapping
	ans     *answer.Result
	plan    sparql.PlanStatsSnapshot
}

func (st *stack) layers(ctx context.Context, tr *tracer, parent, op int32, q string) layered {
	var l layered
	s := tr.begin("triplex", parent, op)
	ext, err := triplex.ExtractOpts(q, triplex.Options{})
	tr.end(s)
	l.ext = ext
	if err != nil {
		l.status = core.StatusNotExtracted
		return l
	}
	s = tr.begin("propmap", parent, op)
	mp, err := st.mapper.Map(ext)
	tr.end(s)
	if err != nil {
		l.status = core.StatusNotMapped
		return l
	}
	l.mp = mp
	s = tr.begin("answer", parent, op)
	sess := sparql.NewSnapshotSession(st.k.Store.Snapshot()).WithPlanCache(st.plans)
	ans, err := st.extractor.ExtractSessionCtx(ctx, mp, sess)
	tr.end(s)
	l.plan = sess.PlanStats()
	var boolErr *answer.ErrBoolean
	switch {
	case errors.As(err, &boolErr):
		l.status = core.StatusUnsupported
	case err != nil:
		l.status = core.StatusNotMapped
	case ans.Answered():
		l.ans, l.status, l.answers = ans, core.StatusAnswered, ans.Answers
	default:
		l.ans, l.status = ans, core.StatusNoAnswer
	}
	return l
}

func sameTerms(a, b []rdf.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayTally accumulates the per-layer counts the spans do not give.
type replayTally struct {
	wrong []string
	// coreMissNS is the core.answer time of the reads that missed the
	// answer cache, which the pipeline spans replay.
	coreMissNS                   int64
	triples, candidates          int
	extractions                  []*triplex.Extraction
	mappings                     []*propmap.Mapping
	answers, queries, execd, won int
	plan                         sparql.PlanStatsSnapshot
	commits                      int
	// oneLine and oneLineRejected count the updates whose one-line
	// full-IRI form was parsed, and those the parser rejected.
	oneLine, oneLineRejected int
	updates                  [][]store.BatchOp
}

func (rt *replayTally) fail(format string, args ...any) {
	if len(rt.wrong) < 5 {
		rt.wrong = append(rt.wrong, fmt.Sprintf(format, args...))
	}
}

func (w *workload) replayRead(ctx context.Context, st *stack, tr *tracer, rt *replayTally, op int32, q *question) {
	root := tr.begin("read", -1, op)
	defer tr.end(root)

	s := tr.begin("qaserve.handler", root, op)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/answer", bytes.NewReader(q.body))
	req.Header.Set("Content-Type", "application/json")
	st.handler.ServeHTTP(rec, req)
	tr.end(s)
	var r answerReply
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &r) != nil || !q.matches(r.Status, r.Answers) {
		rt.fail("handler %q: status %d body %s", q.text, rec.Code, rec.Body.String())
	}

	s = tr.begin("core.answer", root, op)
	t0 := time.Now()
	res := st.sys.AnswerCtx(ctx, q.text)
	coreNS := time.Since(t0).Nanoseconds()
	tr.end(s)
	if !q.matches(res.Status.String(), res.AnswerStrings(st.k)) {
		rt.fail("core %q: (%s %v), reference (%s %v)", q.text, res.Status, res.AnswerStrings(st.k), q.refStatus, q.refAnswers)
	}
	if res.CacheHit() {
		return
	}

	// The System missed its answer cache, so it ran the pipeline:
	// replay the same question through the layers and require the
	// identical outcome.
	p := tr.begin("pipeline", root, op)
	l := st.layers(ctx, tr, p, op, q.text)
	tr.end(p)
	if l.status != res.Status || !sameTerms(l.answers, res.Answers) {
		rt.fail("layered %q: (%s %v), core (%s %v)", q.text, l.status, l.answers, res.Status, res.Answers)
	}
	s = tr.begin("ner.link", root, op)
	st.sys.Linker.Link(q.text)
	tr.end(s)
	rt.coreMissNS += coreNS
	if l.ext != nil {
		rt.triples += len(l.ext.Triples)
		rt.extractions = append(rt.extractions, l.ext)
	}
	if l.mp != nil {
		rt.mappings = append(rt.mappings, l.mp)
		for _, mt := range l.mp.Triples {
			rt.candidates += len(mt.Predicates)
		}
	}
	if l.ans != nil {
		rt.answers++
		rt.queries += len(l.ans.Candidates)
		for _, c := range l.ans.Candidates {
			if c.Executed {
				rt.execd++
			}
		}
		if l.status == core.StatusAnswered {
			rt.won++
		}
		rt.plan.Hits += l.plan.Hits
		rt.plan.Misses += l.plan.Misses
		rt.plan.ResultHits += l.plan.ResultHits
		rt.plan.RankSorts += l.plan.RankSorts
	}
}

func (w *workload) replayUpdate(ctx context.Context, st *stack, tr *tracer, rt *replayTally, op int32, u *updateOp) {
	root := tr.begin("update", -1, op)
	defer tr.end(root)
	s := tr.begin("sparql.parse_update", root, op)
	ops, err := sparql.ParseUpdate(u.body)
	tr.end(s)
	if err != nil {
		rt.fail("update rejected: %v\n%s", err, u.body)
		return
	}
	s = tr.begin("wal.commit", root, op)
	_, added, removed, err := st.mgr.ApplyUpdate(ctx, ops)
	tr.end(s)
	want := [2]int{u.triples, 0}
	if u.del {
		want = [2]int{0, u.triples}
	}
	if err != nil || [2]int{added, removed} != want {
		rt.fail("wal commit: (+%d -%d) err %v, want (+%d -%d)", added, removed, err, want[0], want[1])
	}
	s = tr.begin("store.apply", root, op)
	st.mem.ApplyBatch(ops)
	tr.end(s)
	rt.commits++
	rt.updates = append(rt.updates, ops)

	// Untimed: the known parser defect (see oneLineBody). Only bodies
	// with '#' in an <IRI> may be rejected.
	rt.oneLine++
	if _, err := sparql.ParseUpdate(u.oneLine); err != nil {
		rt.oneLineRejected++
		if !u.hashIRI {
			rt.fail("one-line update rejected: %v\n%s", err, u.oneLine)
		}
	}
}

type replayResult struct {
	correct bool
	metrics map[string]metric
}

// replay runs the traced in-process replay of the workload — a fixed
// number of operations — then the standalone strsim and WordNet probes
// and an untimed allocation pass.
func (w *workload) replay(workRoot, workDir string) (*replayResult, error) {
	ctx := context.Background()
	st, err := newStack(workDir)
	if err != nil {
		return nil, err
	}
	defer st.mgr.Close()
	rt := &replayTally{}

	// The replay follows the live run's order from its first request:
	// the warm-up update pairs and reads, then the measured reads with
	// the update-mix updates interleaved at the workload's ratio, then
	// the write probe of the read-only workloads.
	var reads int
	var ups []updateOp
	every := 0
	switch w.name {
	case "qald-repeat":
		reads, ups = replayQALDReads, w.nextUpdates(replayProbeUpdates/2)
	case "kb-factoid":
		reads, ups = replayFactoidReads, w.nextUpdates(replayProbeUpdates/2)
	case "update-mix":
		reads = replayMixReads
		every = w.readsPerUpdate()
		ups = w.nextUpdates(reads / every / 2)
	}
	warm := w.nextUpdates(warmPairs)
	reads += w.warmReads
	logStart, err := fileSize(st.walLog)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	op, u := int32(0), 0
	for i := range warm {
		w.replayUpdate(ctx, st, tr, rt, op, &warm[i])
		op++
	}
	for i := 0; i < reads; i++ {
		w.replayRead(ctx, st, tr, rt, op, &w.questions[w.reads[i]])
		op++
		if every > 0 && i >= w.warmReads && (i+1-w.warmReads)%every == 0 && u < len(ups) {
			w.replayUpdate(ctx, st, tr, rt, op, &ups[u])
			op, u = op+1, u+1
		}
	}
	for ; u < len(ups); u++ {
		w.replayUpdate(ctx, st, tr, rt, op, &ups[u])
		op++
	}
	logEnd, err := fileSize(st.walLog)
	if err != nil {
		return nil, err
	}
	words := predicateWords(rt.extractions)
	w.probeSimilarity(tr, st, words)
	ss := tr.stats()
	if err := tr.write(filepath.Join(workRoot, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, w.seed))); err != nil {
		return nil, err
	}
	alloc := st.allocPass(ctx, rt)

	total := func(name string) time.Duration {
		if s := ss[name]; s != nil {
			return s.total
		}
		return 0
	}
	mean := func(name string, unit time.Duration) float64 {
		s := ss[name]
		if s == nil {
			return 0
		}
		return float64(s.total) / float64(s.n) / float64(unit)
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	props := len(st.k.Properties())
	planTotal := float64(rt.plan.Hits + rt.plan.Misses)
	m := map[string]metric{
		"qaserve.handler_us":          {mean("qaserve.handler", time.Microsecond), "us"},
		"qaserve.overhead_us":         {mean("qaserve.handler", time.Microsecond) - mean("core.answer", time.Microsecond), "us"},
		"core.answer_us":              {mean("core.answer", time.Microsecond), "us"},
		"triplex.us":                  {mean("triplex", time.Microsecond), "us"},
		"triplex.alloc_kb":            {alloc["triplex"], "KiB"},
		"triplex.triples":             {div(float64(rt.triples), float64(len(rt.extractions))), "count"},
		"propmap.us":                  {mean("propmap", time.Microsecond), "us"},
		"propmap.alloc_kb":            {alloc["propmap"], "KiB"},
		"propmap.candidates":          {div(float64(rt.candidates), float64(len(rt.mappings))), "count"},
		"ner.link_us":                 {mean("ner.link", time.Microsecond), "us"},
		"strsim.score_ns":             {div(float64(total("strsim")), float64(len(words)*props)), "ns"},
		"wordnet.similar_ns":          {div(float64(total("wordnet")), float64(len(words)*props)), "ns"},
		"answer.us":                   {mean("answer", time.Microsecond), "us"},
		"answer.alloc_kb":             {alloc["answer"], "KiB"},
		"answer.queries":              {div(float64(rt.queries), float64(rt.answers)), "count"},
		"answer.executed":             {div(float64(rt.execd), float64(rt.answers)), "count"},
		"answer.win_ratio":            {div(float64(rt.won), float64(rt.execd)), "ratio"},
		"sparql.plan_hit_ratio":       {div(float64(rt.plan.Hits), planTotal), "ratio"},
		"sparql.memo_hit_ratio":       {div(float64(rt.plan.ResultHits), planTotal), "ratio"},
		"sparql.rank_sorts":           {div(float64(rt.plan.RankSorts), float64(rt.answers)), "count"},
		"sparql.parse_update_us":      {mean("sparql.parse_update", time.Microsecond), "us"},
		"sparql.oneline_reject_ratio": {div(float64(rt.oneLineRejected), float64(rt.oneLine)), "ratio"},
		"store.apply_us":              {mean("store.apply", time.Microsecond), "us"},
		"store.alloc_kb":              {alloc["store"], "KiB"},
		"wal.commit_us":               {mean("wal.commit", time.Microsecond), "us"},
		"wal.bytes_per_commit":        {div(float64(logEnd-logStart), float64(rt.commits)), "B"},
		"trace.overhead_pct":          {100 * div(float64(total("pipeline"))-float64(rt.coreMissNS), float64(rt.coreMissNS)), "%"},
	}

	names := make([]string, 0, len(ss))
	for n := range ss {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "qaload: traced replay: %d spans, %d commits; one-line full-IRI forms rejected: %d of %d\n",
		len(tr.spans), rt.commits, rt.oneLineRejected, rt.oneLine)
	fmt.Fprintf(os.Stderr, "qaload: %-22s %8s %12s %12s %12s\n", "span", "calls", "total ms", "self ms", "mean us")
	for _, n := range names {
		s := ss[n]
		fmt.Fprintf(os.Stderr, "qaload: %-22s %8d %12.3f %12.3f %12.3f\n", n, s.n,
			float64(s.total)/1e6, float64(s.self)/1e6, float64(s.total)/float64(s.n)/1e3)
	}
	for _, f := range rt.wrong {
		fmt.Fprintln(os.Stderr, "qaload: replay mismatch:", f)
	}
	return &replayResult{correct: len(rt.wrong) == 0, metrics: m}, nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// predicateWords collects the distinct lower-cased predicate lemmas the
// replayed questions produced — the words propmap scores against every
// KB property.
func predicateWords(exts []*triplex.Extraction) []string {
	seen := map[string]bool{}
	var words []string
	for _, ext := range exts {
		for _, t := range ext.Triples {
			w := strings.ToLower(t.Predicate.Lemma)
			if w != "" && !t.IsType && !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	sort.Strings(words)
	return words
}

// probeSimilarity times strsim.PropertyScore and
// wordnet.DB.SimilarPair over the workload's predicate words × KB
// properties: one span per word and function.
func (w *workload) probeSimilarity(tr *tracer, st *stack, words []string) {
	props := st.k.Properties()
	heads := make([]string, len(props))
	for i, p := range props {
		f := strings.Fields(p.Label)
		heads[i] = strings.ToLower(f[len(f)-1])
	}
	root := tr.begin("probe", -1, -1)
	defer tr.end(root)
	for _, word := range words {
		s := tr.begin("strsim", root, -1)
		for _, p := range props {
			strsim.PropertyScore(word, p.Term.LocalName())
		}
		tr.end(s)
		s = tr.begin("wordnet", root, -1)
		for _, h := range heads {
			st.sys.WordNet.SimilarPair(word, h, wordnet.Noun)
		}
		tr.end(s)
	}
}

// allocPass measures each layer's allocation per call outside the
// spans: it reruns the layer over the inputs the replay gave it,
// bracketed by runtime.ReadMemStats (exact, but stop-the-world, so
// never inside a timed span). The answer layer gets a fresh plan cache
// visited in the replay's order.
func (st *stack) allocPass(ctx context.Context, rt *replayTally) map[string]float64 {
	var ms runtime.MemStats
	perCall := func(n int, fn func()) float64 {
		if n == 0 {
			return 0
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fn()
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc-before) / float64(n) / 1024
	}
	out := map[string]float64{}
	out["triplex"] = perCall(len(rt.extractions), func() {
		for _, ext := range rt.extractions {
			triplex.ExtractOpts(ext.Question, triplex.Options{})
		}
	})
	out["propmap"] = perCall(len(rt.mappings), func() {
		for _, mp := range rt.mappings {
			st.mapper.Map(mp.Extraction)
		}
	})
	plans := sparql.NewPlanCache(sparql.DefaultPlanCacheSize)
	out["answer"] = perCall(len(rt.mappings), func() {
		for _, mp := range rt.mappings {
			sess := sparql.NewSnapshotSession(st.k.Store.Snapshot()).WithPlanCache(plans)
			st.extractor.ExtractSessionCtx(ctx, mp, sess)
		}
	})
	out["store"] = perCall(len(rt.updates), func() {
		for _, ops := range rt.updates {
			st.allocStore.ApplyBatch(ops)
		}
	})
	return out
}

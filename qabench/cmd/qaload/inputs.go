package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/qald"
	"repro/internal/rdf"
	"repro/internal/store"
)

// question is one read input with the reference the served answer must
// match and the gold set the served answer is scored against.
type question struct {
	text string
	body []byte // the /v1/answer request body
	// ref is the reference (status, sorted answers) computed in-process
	// through core.System.AnswerCtx with the answer cache off.
	refStatus  string
	refAnswers []string
	// gold is the gold answer set as served label strings.
	gold map[string]bool
}

// updateOp is one /v1/update request of the write stream. Every pair of
// ops INSERTs and later DELETEs the same triples about one
// benchmark-owned subject, in the same syntax form.
type updateOp struct {
	body    string
	pair    int // the pair's number in the workload's stream
	del     bool
	triples int
	// oneLine is the same operation in the full-IRI form written on one
	// line, which the traced run only parses (see oneLineBody).
	oneLine string
	// hashIRI marks a oneLine with '#' inside an <IRI> (rdf:type, xsd
	// datatypes), which the update parser rejects at this commit.
	hashIRI bool
}

// workload holds everything a run sends, all derived from the seed.
type workload struct {
	name      string
	questions []question
	// reads is the read stream: indexes into questions, sent in order.
	reads []int
	// readRate is the open-loop read rate (req/s); updateRate the rate
	// of the update stream beside the reads (update-mix only);
	// probeRate the rate of the write probe that follows the reads on
	// the read-only workloads.
	readRate, updateRate, probeRate float64
	// warmReads is the fixed number of reads sent before timing.
	warmReads int
	// mixForms selects the seeded mix of update syntax forms.
	mixForms bool
	seed     int64
	nextPair int
}

// Fixed open-loop rates per workload, about half of each workload's
// closed-loop saturation throughput on the 2-CPU reference host (see
// qabench/README.md). Below half, the CPUs idle between reads, and the
// p50s flipped between two wake-up latencies from run to run: on
// qald-repeat at a third; on update-mix, nearer a third, between
// updates that find a server CPU free and those that find both busy
// with reads; on kb-factoid at 300 and 600 reads/s (a fifth and a
// third), between ~1.25 and ~1.8 ms: over six seeds run interleaved,
// its p50 spread 13-14% at those rates against 4% at 900/s. They are
// constants: a slower program shows as higher latency at the same
// offered load.
const (
	qaldRepeatRate = 6500.0
	kbFactoidRate  = 900.0
	updateMixReads = 2000.0
	updateMixRate  = 100.0
	writeProbeRate = 250.0
)

// streamLen bounds the precomputed read stream; the senders wrap
// around it, which only a run with extra rounds (see maxExtra) may
// reach.
const streamLen = 1 << 18

// buildWorkload generates the named workload's inputs from the seed
// and computes every read's reference in-process.
func buildWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed, probeRate: writeProbeRate}
	ref := kb.Default()
	var err error
	switch name {
	case "qald-repeat":
		w.questions, err = qaldQuestions(ref)
		w.readRate, w.warmReads = qaldRepeatRate, 4*len(w.questions)
	case "kb-factoid":
		w.questions = factoidQuestions(ref)
		w.readRate, w.warmReads = kbFactoidRate, 600
	case "update-mix":
		w.questions, err = qaldQuestions(ref)
		w.readRate, w.warmReads = updateMixReads, 4*len(w.questions)
		w.updateRate, w.probeRate, w.mixForms = updateMixRate, 0, true
	default:
		return nil, fmt.Errorf("unknown workload %q (want qald-repeat, kb-factoid or update-mix)", name)
	}
	if err != nil {
		return nil, err
	}
	if err := w.computeReferences(ref); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	w.reads = make([]int, 0, streamLen)
	perm := make([]int, len(w.questions))
	for i := range perm {
		perm[i] = i
	}
	for len(w.reads) < streamLen {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		w.reads = append(w.reads, perm...)
	}
	w.reads = w.reads[:streamLen]
	if name == "update-mix" {
		if err := w.checkUpdatesKeepReferences(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// labels renders terms the way qaserve serves them (core.Result's
// AnswerStrings): labels for IRIs, lexical forms for literals.
func labels(k *kb.KB, ts []rdf.Term) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, t := range ts {
		if t.IsIRI() {
			out[k.LabelOf(t)] = true
		} else {
			out[t.Value] = true
		}
	}
	return out
}

func newQuestion(text string, gold map[string]bool) question {
	body, _ := json.Marshal(map[string]string{"question": text}) // a string map always marshals
	return question{text: text, body: body, gold: gold}
}

// qaldQuestions returns the 55 QALD questions with their gold sets.
func qaldQuestions(k *kb.KB) ([]question, error) {
	var out []question
	for _, q := range qald.Questions() {
		gold, err := qald.GoldCtx(context.Background(), k, q)
		if err != nil {
			return nil, err
		}
		out = append(out, newQuestion(q.Text, labels(k, gold)))
	}
	return out, nil
}

// factoidTemplate instantiates one question form over entities of a
// class; the gold set is the entity's values of prop.
type factoidTemplate struct {
	class, prop, form string
}

var factoidTemplates = []factoidTemplate{
	{"Person", "birthPlace", "Where was %s born?"},
	{"Person", "birthDate", "When was %s born?"},
	{"Person", "height", "How tall is %s?"},
	{"Person", "deathPlace", "Where did %s die?"},
	{"Person", "deathDate", "When did %s die?"},
	{"Person", "spouse", "Who is married to %s?"},
	{"Book", "author", "Who wrote %s?"},
	{"Book", "author", "Who is the author of %s?"},
	{"City", "populationTotal", "What is the population of %s?"},
	{"City", "mayor", "Who is the mayor of %s?"},
	{"Person", "birthPlace", "What is the birth place of %s?"},
	{"Person", "birthPlace", "In which city was %s born?"},
	{"Person", "birthDate", "What is the birth date of %s?"},
	{"Person", "height", "What is the height of %s?"},
	{"Person", "spouse", "Who is the spouse of %s?"},
	{"Person", "deathPlace", "What is the death place of %s?"},
	{"Person", "residence", "Where does %s live?"},
	{"Book", "author", "Which person wrote %s?"},
	{"Book", "numberOfPages", "How many pages does %s have?"},
	{"City", "populationTotal", "How many people live in %s?"},
	{"City", "elevation", "How high is %s?"},
	{"City", "elevation", "What is the elevation of %s?"},
}

// factoidQuestions instantiates every template over every KB entity
// that has the template's fact. Question texts produced by more than
// one entity (shared labels) are dropped: their gold would be
// ambiguous.
func factoidQuestions(k *kb.KB) []question {
	gold := map[string]map[string]bool{}
	owners := map[string]rdf.Term{}
	ambiguous := map[string]bool{}
	for _, tp := range factoidTemplates {
		var ents []rdf.Term
		k.Store.ForEachMatch(rdf.Triple{P: rdf.Type(), O: rdf.Ont(tp.class)}, func(t rdf.Triple) bool {
			ents = append(ents, t.S)
			return true
		})
		for _, e := range ents {
			var objs []rdf.Term
			k.Store.ForEachMatch(rdf.Triple{S: e, P: rdf.Ont(tp.prop)}, func(t rdf.Triple) bool {
				objs = append(objs, t.O)
				return true
			})
			label := k.LabelOf(e)
			if len(objs) == 0 || label == "" {
				continue
			}
			text := fmt.Sprintf(tp.form, label)
			if o, ok := owners[text]; ok && o != e {
				ambiguous[text] = true
				continue
			}
			owners[text] = e
			gold[text] = labels(k, objs)
		}
	}
	texts := make([]string, 0, len(gold))
	for t := range gold {
		if !ambiguous[t] {
			texts = append(texts, t)
		}
	}
	sort.Strings(texts)
	out := make([]question, 0, len(texts))
	for _, t := range texts {
		out = append(out, newQuestion(t, gold[t]))
	}
	return out
}

// referenceSystem builds a pipeline over k with the answer cache off,
// configured as qaserve configures its own.
func referenceSystem(k *kb.KB) *core.System {
	cfg := core.DefaultConfig()
	cfg.KB = k
	return core.New(cfg)
}

func (w *workload) computeReferences(k *kb.KB) error {
	sys := referenceSystem(k)
	for i := range w.questions {
		q := &w.questions[i]
		res := sys.AnswerCtx(context.Background(), q.text)
		if res.Status == core.StatusCanceled || res.Status == core.StatusInternal {
			return fmt.Errorf("reference for %q: %v", q.text, res.Err)
		}
		q.refStatus, q.refAnswers = res.Status.String(), res.AnswerStrings(k)
	}
	return nil
}

// matches reports whether a served (status, answers) equals the
// question's reference. Served answers arrive sorted, as the reference
// is.
func (q *question) matches(status string, answers []string) bool {
	if status != q.refStatus || len(answers) != len(q.refAnswers) {
		return false
	}
	for i := range answers {
		if answers[i] != q.refAnswers[i] {
			return false
		}
	}
	return true
}

// --- the write stream ---

// pairLag is how many later INSERTs are sent before a pair's DELETE,
// so a few benchmark-owned subjects are live at once.
const pairLag = 3

// pairTriples draws one benchmark-owned subject's triples. The hub
// predicates (rdf:type, dbont:birthPlace) make the store's
// copy-on-write bucket clone show; both syntax forms draw from this
// same distribution.
func pairTriples(rng *rand.Rand, seed int64, n int) []rdf.Triple {
	s := rdf.Res(fmt.Sprintf("Qabench_%d_%d", seed, n))
	city := func() rdf.Term { return synthCity(rng.Intn(kb.DefaultConfig().SyntheticCities)) }
	var ts []rdf.Triple
	if rng.Float64() < 0.5 {
		ts = append(ts, rdf.Triple{S: s, P: rdf.Type(), O: rdf.Ont("Person")})
	}
	if rng.Float64() < 0.7 {
		ts = append(ts, rdf.Triple{S: s, P: rdf.Ont("birthPlace"), O: city()})
	}
	if rng.Float64() < 0.5 {
		h := 1.5 + float64(rng.Intn(60))/100
		ts = append(ts, rdf.Triple{S: s, P: rdf.Ont("height"), O: rdf.NewDouble(h)})
	}
	if rng.Float64() < 0.3 || len(ts) == 0 {
		ts = append(ts, rdf.Triple{S: s, P: rdf.Ont("residence"), O: city()})
	}
	return ts
}

func synthCity(i int) rdf.Term { return rdf.Res(fmt.Sprintf("Synthville_%03d", i)) }

const updatePrefixes = "PREFIX dbont: <http://dbpedia.org/ontology/>\n" +
	"PREFIX res: <http://dbpedia.org/resource/>\n" +
	"PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"

// prefixedTerm writes a term with the dbont:/res:/xsd: prefixes and
// the 'a' keyword.
func prefixedTerm(t rdf.Term) string {
	switch {
	case t.IsIRI() && t.Value == rdf.IRIType:
		return "a"
	case t.IsIRI() && strings.HasPrefix(t.Value, rdf.NSOnt):
		return "dbont:" + strings.TrimPrefix(t.Value, rdf.NSOnt)
	case t.IsIRI() && strings.HasPrefix(t.Value, rdf.NSRes):
		return "res:" + strings.TrimPrefix(t.Value, rdf.NSRes)
	case t.Datatype != "":
		return fmt.Sprintf("%q^^xsd:%s", t.Value, strings.TrimPrefix(t.Datatype, rdf.NSXSD))
	}
	return fmt.Sprintf("%q", t.Value)
}

// fullTerm writes a term N-Triples style: <IRI> and "lex"^^<IRI>.
func fullTerm(t rdf.Term) string {
	if t.IsIRI() {
		return "<" + t.Value + ">"
	}
	if t.Datatype != "" {
		return fmt.Sprintf("%q^^<%s>", t.Value, t.Datatype)
	}
	return fmt.Sprintf("%q", t.Value)
}

// updateBody serialises one operation, one triple per line: under
// PREFIX declarations with prefixed names, or with full IRIs as
// N-Triples lines.
func updateBody(verb string, ts []rdf.Triple, full bool) string {
	var sb strings.Builder
	if !full {
		sb.WriteString(updatePrefixes)
	}
	sb.WriteString(verb + " DATA {\n")
	for _, t := range ts {
		if full {
			fmt.Fprintf(&sb, "%s %s %s .\n", fullTerm(t.S), fullTerm(t.P), fullTerm(t.O))
		} else {
			fmt.Fprintf(&sb, "  %s %s %s .\n", prefixedTerm(t.S), prefixedTerm(t.P), prefixedTerm(t.O))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// oneLineBody writes the operation with full IRIs on one line, as a
// one-line client request would. At this commit sparql.ParseUpdate
// rejects such a body when an <IRI> in it contains '#': the DATA
// block's brace scan reads '#' as a comment start and skips the rest
// of the line, closing brace included. A run sends no such body, as
// the benchmark's workloads must be free of failed operations; the
// traced run parses each op's one-line form and reports the rejected
// share, so a parser fix shows there.
func oneLineBody(verb string, ts []rdf.Triple) string {
	var sb strings.Builder
	sb.WriteString(verb + " DATA {")
	for _, t := range ts {
		fmt.Fprintf(&sb, " %s %s %s .", fullTerm(t.S), fullTerm(t.P), fullTerm(t.O))
	}
	sb.WriteString(" }")
	return sb.String()
}

// readsPerUpdate is update-mix's read:update ratio, which its closed
// loop and the traced replay keep.
func (w *workload) readsPerUpdate() int { return int(math.Round(w.readRate / w.updateRate)) }

// warmPairs is the number of update pairs sent before timing.
const warmPairs = 4

// nextUpdates returns the op stream of n fresh INSERT/DELETE pairs:
// each DELETE follows its INSERT after pairLag later INSERTs, and every
// pair is complete, so the KB is back to its starting size once the
// ops are applied in order. On update-mix the syntax form of each pair
// is a seeded coin; the read-only workloads' write probe uses the
// prefixed form only.
func (w *workload) nextUpdates(n int) []updateOp {
	first := w.nextPair
	w.nextPair += n
	pairs := make([][2]updateOp, n)
	for j := range pairs {
		// One generator per pair keeps a pair's content independent of
		// how many pairs earlier phases drew.
		rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(first+j)))
		full := rng.Intn(2) == 1 && w.mixForms
		ts := pairTriples(rng, w.seed, first+j)
		hash := false
		for _, t := range ts {
			hash = hash || strings.Contains(t.P.Value+t.O.Value+t.O.Datatype, "#")
		}
		for k, verb := range [2]string{"INSERT", "DELETE"} {
			pairs[j][k] = updateOp{body: updateBody(verb, ts, full), pair: first + j, del: k == 1, triples: len(ts),
				oneLine: oneLineBody(verb, ts), hashIRI: hash}
		}
	}
	var ops []updateOp
	for j := 0; j < n+pairLag; j++ {
		if j < n {
			ops = append(ops, pairs[j][0])
		}
		if j >= pairLag && j-pairLag < n {
			ops = append(ops, pairs[j-pairLag][1])
		}
	}
	return ops
}

// checkUpdatesKeepReferences proves on a private KB copy that the
// benchmark-owned triples the update stream inserts change no read's
// reference: with every kind of triple pairTriples can draw inserted
// at once, for every city it can draw, each QALD question still
// answers exactly as at the start. Reads served while inserts are live
// can therefore be checked against the same references.
func (w *workload) checkUpdatesKeepReferences() error {
	k := kb.Build(kb.DefaultConfig())
	sys := referenceSystem(k)
	var all []rdf.Triple
	for c := 0; c < kb.DefaultConfig().SyntheticCities; c++ {
		s := rdf.Res(fmt.Sprintf("Qabench_check_%d", c))
		all = append(all,
			rdf.Triple{S: s, P: rdf.Type(), O: rdf.Ont("Person")},
			rdf.Triple{S: s, P: rdf.Ont("birthPlace"), O: synthCity(c)},
			rdf.Triple{S: s, P: rdf.Ont("height"), O: rdf.NewDouble(1.5 + float64(c)/100)},
			rdf.Triple{S: s, P: rdf.Ont("residence"), O: synthCity(c)})
	}
	k.Store.ApplyBatch([]store.BatchOp{{Triples: all}})
	for i := range w.questions {
		q := &w.questions[i]
		res := sys.AnswerCtx(context.Background(), q.text)
		if !q.matches(res.Status.String(), res.AnswerStrings(k)) {
			return fmt.Errorf("update stream changes the answer to %q: the workload cannot check reads against fixed references", q.text)
		}
	}
	return nil
}

package obs

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// This file is the exposition-format lint gate: it exercises every canonical
// BoFL instrument, scrapes the full /metrics text and validates it line by
// line against the Prometheus 0.0.4 grammar — names, label syntax, HELP/TYPE
// placement, histogram bucket monotonicity and +Inf/count agreement, and
// series uniqueness. A regression anywhere in the registry's writer (or a
// hostile label value leaking through) fails here before any scraper sees it.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// parseSample parses `name{k="v",...} value` (labels optional).
func parseSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}, line: line}
	rest := line
	brace := strings.IndexByte(rest, '{')
	space := strings.IndexByte(rest, ' ')
	if space < 0 {
		return s, fmt.Errorf("no value separator")
	}
	if brace >= 0 && brace < space {
		s.name = rest[:brace]
		end := strings.Index(rest, "} ")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set")
		}
		body := rest[brace+1 : end]
		rest = rest[end+2:]
		for len(body) > 0 {
			eq := strings.Index(body, `="`)
			if eq < 0 {
				return s, fmt.Errorf("label without value in %q", body)
			}
			key := body[:eq]
			if !labelNameRe.MatchString(key) {
				return s, fmt.Errorf("bad label name %q", key)
			}
			// Scan the quoted value honoring escapes.
			i := eq + 2
			var val strings.Builder
			closed := false
			for i < len(body) {
				c := body[i]
				if c == '\\' {
					if i+1 >= len(body) {
						return s, fmt.Errorf("dangling escape")
					}
					switch body[i+1] {
					case '\\', '"', 'n':
						val.WriteByte(body[i+1])
					default:
						return s, fmt.Errorf("bad escape \\%c", body[i+1])
					}
					i += 2
					continue
				}
				if c == '"' {
					closed = true
					i++
					break
				}
				val.WriteByte(c)
				i++
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value")
			}
			if _, dup := s.labels[key]; dup {
				return s, fmt.Errorf("duplicate label %q", key)
			}
			s.labels[key] = val.String()
			if i < len(body) {
				if body[i] != ',' {
					return s, fmt.Errorf("junk after label value: %q", body[i:])
				}
				i++
			}
			body = body[i:]
			i = 0
		}
	} else {
		s.name = rest[:space]
		rest = rest[space+1:]
	}
	if !metricNameRe.MatchString(s.name) {
		return s, fmt.Errorf("bad metric name %q", s.name)
	}
	v, err := parsePromValue(strings.TrimSpace(rest))
	if err != nil {
		return s, err
	}
	s.value = v
	return s, nil
}

func parsePromValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return 0, fmt.Errorf("NaN sample")
	}
	return strconv.ParseFloat(v, 64)
}

// sampleFamily maps a sample name back to its family (_bucket/_sum/_count
// collapse onto the histogram family when one exists).
func sampleFamily(name string, types map[string]string) (string, bool) {
	if _, ok := types[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suffix)
		if found {
			if typ, ok := types[base]; ok && typ == "histogram" {
				return base, true
			}
		}
	}
	return "", false
}

func TestMetricsExpositionLint(t *testing.T) {
	tel := NewBoFL(Real{})
	// Exercise a representative slice of the catalog, including labeled
	// series, exemplar-carrying observations, spans and a hostile label
	// value that must be escaped on the way out.
	tel.Count(MetricRounds, 3)
	tel.Count(MetricPhaseEnergy, 120.5, L("phase", "exploit"))
	tel.Count(MetricPhaseEnergy, 60.25, L("phase", "explore"))
	tel.SetGauge(MetricControllerPhase, 2)
	tel.Observe(MetricRoundDuration, 1.5)
	tel.ObserveExemplar(MetricRoundEnergy, 250, MintTrace(7, 1))
	tel.Count(MetricFLWireTx, 4096, L("codec", `evil"value\with
newline`))
	tel.Span(SpanGPFit)()

	var b strings.Builder
	if err := tel.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exposition := b.String()
	if !strings.HasSuffix(exposition, "\n") {
		t.Error("exposition does not end in a newline")
	}

	types := map[string]string{}    // family → TYPE
	helped := map[string]bool{}     // families with HELP
	seenSeries := map[string]bool{} // full series key → seen
	var samples []promSample
	currentFamily := ""

	for i, line := range strings.Split(strings.TrimSuffix(exposition, "\n"), "\n") {
		switch {
		case line == "":
			t.Errorf("line %d: blank line in exposition", i+1)
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
				continue
			}
			if helped[parts[0]] {
				t.Errorf("line %d: duplicate HELP for %s", i+1, parts[0])
			}
			helped[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			name, typ := parts[0], parts[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Errorf("line %d: unknown type %q", i+1, typ)
			}
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, name)
			}
			types[name] = typ
			currentFamily = name
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unexpected comment %q", i+1, line)
		default:
			s, err := parseSample(line)
			if err != nil {
				t.Errorf("line %d: %v (%q)", i+1, err, line)
				continue
			}
			fam, ok := sampleFamily(s.name, types)
			if !ok {
				t.Errorf("line %d: sample %s has no preceding TYPE", i+1, s.name)
				continue
			}
			if fam != currentFamily {
				t.Errorf("line %d: sample %s outside its family block (%s)", i+1, s.name, currentFamily)
			}
			if seenSeries[line[:strings.LastIndexByte(line, ' ')]] {
				t.Errorf("line %d: duplicate series %q", i+1, line)
			}
			seenSeries[line[:strings.LastIndexByte(line, ' ')]] = true
			if types[fam] == "counter" && s.value < 0 {
				t.Errorf("line %d: negative counter sample %q", i+1, line)
			}
			samples = append(samples, s)
		}
	}

	// The escaped hostile label must decode back to the original value.
	foundHostile := false
	for _, s := range samples {
		if s.name == MetricFLWireTx && strings.Contains(s.labels["codec"], `evil"value`) {
			foundHostile = true
		}
	}
	if !foundHostile {
		t.Error("hostile codec label did not survive escape/parse roundtrip")
	}

	// Histogram coherence: cumulative buckets monotone, +Inf bucket == count.
	type histKey struct{ fam, labels string }
	buckets := map[histKey][]promSample{}
	counts := map[histKey]float64{}
	for _, s := range samples {
		fam, _ := sampleFamily(s.name, types)
		if types[fam] != "histogram" {
			continue
		}
		base := map[string]string{}
		for k, v := range s.labels {
			if k != "le" {
				base[k] = v
			}
		}
		key := histKey{fam, fmt.Sprint(base)}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			if _, ok := s.labels["le"]; !ok {
				t.Errorf("bucket without le label: %q", s.line)
			}
			buckets[key] = append(buckets[key], s)
		case strings.HasSuffix(s.name, "_count"):
			counts[key] = s.value
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in exposition")
	}
	for key, bs := range buckets {
		prevBound := -1.0
		prevCum := -1.0
		sawInf := false
		for _, s := range bs {
			bound, err := parsePromValue(s.labels["le"])
			if err != nil {
				t.Errorf("%s: bad le %q", key.fam, s.labels["le"])
				continue
			}
			if bound <= prevBound {
				t.Errorf("%s: bucket bounds not ascending at le=%q", key.fam, s.labels["le"])
			}
			if s.value < prevCum {
				t.Errorf("%s: cumulative counts decreased at le=%q", key.fam, s.labels["le"])
			}
			prevBound, prevCum = bound, s.value
			if s.labels["le"] == "+Inf" {
				sawInf = true
				if c, ok := counts[key]; !ok || c != s.value {
					t.Errorf("%s: +Inf bucket %v != count %v", key.fam, s.value, c)
				}
			}
		}
		if !sawInf {
			t.Errorf("%s: histogram missing +Inf bucket", key.fam)
		}
	}

	// Exemplars must stay OUT of the 0.0.4 text (they live in /v1/telemetry):
	// any '#' past column 0 would be an OpenMetrics exemplar annotation.
	for _, s := range samples {
		if strings.Contains(s.line, " # ") {
			t.Errorf("exemplar annotation leaked into 0.0.4 exposition: %q", s.line)
		}
	}

	// Determinism: a second scrape of identical instrument state is
	// byte-equal. Runtime gauges (bofl_go_*) are sampled live at scrape time
	// and legitimately move between scrapes, so they are excluded.
	var b2 strings.Builder
	if err := tel.Registry.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	strip := func(exposition string) string {
		var keep []string
		for _, line := range strings.Split(exposition, "\n") {
			if strings.Contains(line, "bofl_go_") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if got := strip(b2.String()); got != strip(exposition) {
		t.Error("two scrapes of identical registry state differ")
	}
}

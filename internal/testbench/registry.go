package testbench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// campaignDef is one registry entry: the campaign's identity, its typed
// params/payload constructors, and the untyped executor the generic
// register function adapts.
type campaignDef struct {
	name       string
	summary    string
	newParams  func() any // pointer to a default-filled params struct
	newPayload func() any // pointer to a zero payload struct
	run        func(ctx context.Context, ev *Env, params any) (any, error)
}

// registry maps campaign name to definition. It is populated exclusively
// from init (campaigns.go) and read-only afterwards, so it needs no lock.
var registry = map[string]*campaignDef{}

// register adds a campaign under a unique name. P is the params struct
// (defaults taken from the given value), R the payload struct.
func register[P, R any](name, summary string, defaults P, run func(ctx context.Context, ev *Env, p *P) (*R, error)) {
	if _, dup := registry[name]; dup {
		panic("testbench: duplicate campaign " + name)
	}
	registry[name] = &campaignDef{
		name:    name,
		summary: summary,
		newParams: func() any {
			p := defaults
			return &p
		},
		newPayload: func() any { return new(R) },
		run: func(ctx context.Context, ev *Env, params any) (any, error) {
			return run(ctx, ev, params.(*P))
		},
	}
}

// lookup resolves a campaign name, listing the known names on failure.
func lookup(name string) (*campaignDef, error) {
	def, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("testbench: unknown campaign %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	return def, nil
}

// Names returns the registered campaign names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ParamField describes one campaign parameter: its JSON name, its Go
// type, and the default the registry fills in when a spec omits it.
type ParamField struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Default any    `json:"default"`
}

// Info is the machine-readable description of one campaign — what
// `mcmon -list` prints and `mcserved GET /v1/campaigns` serves. It is
// derived from the registered params struct by reflection, so flag help
// and HTTP discovery can never drift from the code.
type Info struct {
	Name    string       `json:"name"`
	Summary string       `json:"summary"`
	Params  []ParamField `json:"params"`
}

// List enumerates every registered campaign with its param schema and
// defaults, sorted by name.
func List() []Info {
	out := make([]Info, 0, len(registry))
	for _, name := range Names() {
		def := registry[name]
		out = append(out, Info{
			Name:    name,
			Summary: def.summary,
			Params:  paramFields(def.newParams()),
		})
	}
	return out
}

// paramFields reflects a params struct pointer into its schema rows.
func paramFields(p any) []ParamField {
	v := reflect.ValueOf(p).Elem()
	t := v.Type()
	var out []ParamField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := strings.Split(f.Tag.Get("json"), ",")[0]
		if name == "-" {
			continue
		}
		if name == "" {
			name = strings.ToLower(f.Name)
		}
		// Pointer fields are optional knobs; render "*T" as "T?" so the
		// schema reads naturally in -list output and HTTP discovery.
		typ := f.Type.String()
		if f.Type.Kind() == reflect.Ptr {
			typ = f.Type.Elem().String() + "?"
		}
		out = append(out, ParamField{
			Name:    name,
			Type:    typ,
			Default: v.Field(i).Interface(),
		})
	}
	return out
}

// decodeParams fills the typed params struct (already holding defaults)
// from whatever form the spec carries: nil keeps the defaults, raw JSON
// and JSON-shaped values (maps from a decoded HTTP body) unmarshal over
// them, and an already-typed struct or pointer is copied directly.
func decodeParams(src any, into any) error {
	if src == nil {
		return nil
	}
	switch v := src.(type) {
	case json.RawMessage:
		return unmarshalParams(v, into)
	case []byte:
		return unmarshalParams(v, into)
	}
	dst := reflect.ValueOf(into)
	sv := reflect.ValueOf(src)
	if sv.Type() == dst.Type() { // *P
		dst.Elem().Set(sv.Elem())
		return nil
	}
	if sv.Type() == dst.Type().Elem() { // P
		dst.Elem().Set(sv)
		return nil
	}
	// JSON-shaped value (e.g. map[string]any): round-trip through JSON.
	data, err := json.Marshal(src)
	if err != nil {
		return err
	}
	return unmarshalParams(data, into)
}

// unmarshalParams unmarshals strictly: unknown fields are an error, so a
// typo'd spec fails loudly instead of silently running the defaults.
func unmarshalParams(data []byte, into any) error {
	if len(data) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// MaxTrials bounds every campaign's trial-count knobs. The streaming
// reduction engine keeps memory flat well past this, but a run above it
// is virtually always a typo'd spec, and the bound keeps a single HTTP
// submission from pinning a server for days. 10M-trial production specs
// — the scale the paper's yield and coverage statistics sharpen at —
// validate cleanly.
const MaxTrials = 100_000_000

// MaxPoints bounds every 1-D resolution knob: the points of fig1, fig4,
// fig7 and fig8 and the columns of fig4spice and fig4mc. Each allocates
// O(n) per curve or per die before any work starts, so an unbounded
// count is a one-request out-of-memory; 16384 is far past any plot or
// envelope resolution the paper's figures use (41 to 512).
const MaxPoints = 1 << 14

// MaxGridSide bounds the side of the 2-D grids — the fig6 zone map and
// the stimopt phase grid — whose cost grows with its square.
const MaxGridSide = 1 << 10

// MaxCaptureTicks bounds the master-clock ticks per period (ClockHz·T)
// of one counter-ablation capture. Each tick holds a time, two float64
// samples and a code, so a cell stays under ~8 MiB; the campaign's
// fastest default clock, 100 MHz, takes 20000 ticks.
const MaxCaptureTicks = 1 << 18

// paramsValidator is implemented by params structs that constrain their
// values beyond what the JSON schema can express (trial-count and size
// bounds, positive sigmas). Validate and Run both consult it after
// decoding.
type paramsValidator interface{ Validate() error }

// validateParams runs the params struct's own semantic validation when
// it declares one.
func validateParams(campaign string, params any) error {
	v, ok := params.(paramsValidator)
	if !ok {
		return nil
	}
	if err := v.Validate(); err != nil {
		return fmt.Errorf("testbench: campaign %s: bad params: %w", campaign, err)
	}
	return nil
}

// Validate checks a spec against the registry — the campaign exists, the
// backend name is known, the spec knobs are in range, and the params
// decode into the campaign's schema (and pass its semantic validation)
// — without running anything. The HTTP service gates submissions on it.
func Validate(spec Spec) error {
	def, err := lookup(spec.Campaign)
	if err != nil {
		return err
	}
	if spec.Backend != "" {
		known := false
		for _, b := range core.Backends() {
			if spec.Backend == b {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("testbench: campaign %s: unknown backend %q (want %s)",
				spec.Campaign, spec.Backend, strings.Join(core.Backends(), " or "))
		}
	}
	if spec.Chunk < 0 {
		return fmt.Errorf("testbench: campaign %s: negative chunk %d", spec.Campaign, spec.Chunk)
	}
	if spec.Checkpoint < 0 {
		return fmt.Errorf("testbench: campaign %s: negative checkpoint %d", spec.Campaign, spec.Checkpoint)
	}
	params := def.newParams()
	if err := decodeParams(spec.Params, params); err != nil {
		return fmt.Errorf("testbench: campaign %s: bad params: %w", spec.Campaign, err)
	}
	return validateParams(spec.Campaign, params)
}

// DecodeResult restores a Result from its JSON encoding, rebuilding the
// typed payload and params through the registry — the receiving half of
// the envelope's round-trip contract.
func DecodeResult(data []byte) (*Result, error) {
	var raw struct {
		Spec    json.RawMessage `json:"spec"`
		Payload json.RawMessage `json:"payload"`
		Text    string          `json:"text"`
		Elapsed time.Duration   `json:"elapsed_ns"`
		Workers int             `json:"workers"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("testbench: decode result: %w", err)
	}
	var spec Spec
	if err := json.Unmarshal(raw.Spec, &spec); err != nil {
		return nil, fmt.Errorf("testbench: decode result spec: %w", err)
	}
	def, err := lookup(spec.Campaign)
	if err != nil {
		return nil, err
	}
	params := def.newParams()
	if err := decodeParams(spec.Params, params); err != nil {
		return nil, fmt.Errorf("testbench: decode result params: %w", err)
	}
	spec.Params = params
	res := &Result{Spec: spec, Text: raw.Text, Elapsed: raw.Elapsed, Workers: raw.Workers}
	if len(raw.Payload) > 0 && string(raw.Payload) != "null" {
		payload := def.newPayload()
		if err := json.Unmarshal(raw.Payload, payload); err != nil {
			return nil, fmt.Errorf("testbench: decode result payload: %w", err)
		}
		res.Payload = payload
	}
	return res, nil
}

package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// profileJSON is the wire form of a Profile: the offline-profiling artifact
// a deployment ships (per-element FLOPs and tensor sizes), without the
// executable graphs.
type profileJSON struct {
	Name       string        `json:"name"`
	Input      Shape         `json:"input"`
	InputBytes float64       `json:"input_bytes"`
	Elements   []elementJSON `json:"elements"`
}

type elementJSON struct {
	Name       string  `json:"name"`
	FLOPs      float64 `json:"flops"`
	Out        Shape   `json:"out"`
	ExitFLOPs  float64 `json:"exit_flops"`
	OutBytes   float64 `json:"out_bytes"`
	ConvLayers int     `json:"conv_layers,omitempty"`
}

// WriteJSON serializes the profile's analytic numbers — exactly what the
// exit-setting and offloading layers consume. Graphs (weights-free
// structure) are not serialized; a loaded profile supports every decision
// path but not tensor execution.
func (p *Profile) WriteJSON(w io.Writer) error {
	out := profileJSON{
		Name:       p.Name,
		Input:      p.Input,
		InputBytes: p.InputBytes,
	}
	for i, e := range p.Elements {
		out.Elements = append(out.Elements, elementJSON{
			Name:       e.Name,
			FLOPs:      e.FLOPs,
			Out:        e.Out,
			ExitFLOPs:  p.ExitClassifierFLOPs(i + 1),
			OutBytes:   e.outBytes(),
			ConvLayers: len(e.Convs),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("model: encode profile: %w", err)
	}
	return nil
}

// readJSON loads a profile previously written with WriteJSON. The loaded
// profile carries no executable graphs.
func readJSON(r io.Reader) (*Profile, error) {
	var in profileJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("model: decode profile: %w", err)
	}
	p := &Profile{
		Name:       in.Name,
		Input:      in.Input,
		InputBytes: in.InputBytes,
	}
	for _, e := range in.Elements {
		p.Elements = append(p.Elements, Element{
			Name:  e.Name,
			FLOPs: e.FLOPs,
			Out:   e.Out,
		})
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.buildCaches(), nil
}

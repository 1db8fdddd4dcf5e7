package offload

import "testing"

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		name     string
		wantName string // "" when the name must be rejected
	}{
		{"leime", "LEIME"},
		{"leime-centralized", "LEIME-centralized"},
		{"device-only", "D-only"},
		{"edge-only", "E-only"},
		{"cap", "cap_based"},
		{"fixed:0", "fixed-0.00"},
		{"fixed:0.35", "fixed-0.35"},
		{"fixed:1", "fixed-1.00"},
		{"", ""},
		{"magic", ""},
		{"LEIME", ""},
		{"fixed:", ""},
		{"fixed:1.5", ""},
		{"fixed:-0.1", ""},
		{"fixed:NaN", ""},
		{"fixed:Inf", ""},
		{"fixed:0.5junk", ""},
		{"fixed: 0.5", ""},
		{"fixed0.5", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := ParsePolicy(c.name)
			if c.wantName == "" {
				if err == nil {
					t.Fatalf("ParsePolicy(%q) accepted as %q", c.name, p.Name)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParsePolicy(%q): %v", c.name, err)
			}
			if p.Name != c.wantName || p.Decide == nil {
				t.Errorf("ParsePolicy(%q) = %q, want %q", c.name, p.Name, c.wantName)
			}
		})
	}
}

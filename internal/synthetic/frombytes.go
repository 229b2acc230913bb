package synthetic

import (
	"fmt"

	"prpart/internal/design"
	"prpart/internal/resource"
)

// FromBytes decodes a byte string into a small bounded design: up to 4
// modules of up to 3 modes with small resource vectors, and up to 6
// configurations whose mode selections (0 = absent) come straight from
// the bytes. It is the shared input decoder of the fuzz targets. The
// decoder is total — any byte string yields a design — but the result
// may still be rejected by design.Validate (e.g. a configuration row of
// all zeros), which fuzz targets treat as an uninteresting input.
func FromBytes(data []byte) *design.Design {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	d := &design.Design{Name: "fuzz", Static: resource.New(1, 0, 0)}
	nMod := 1 + int(next())%4
	for mi := 0; mi < nMod; mi++ {
		m := &design.Module{Name: fmt.Sprintf("M%d", mi)}
		nModes := 1 + int(next())%3
		for k := 0; k < nModes; k++ {
			m.Modes = append(m.Modes, design.Mode{
				Name:      fmt.Sprintf("m%d", k),
				Resources: resource.New(1+int(next())%50, int(next())%4, int(next())%4),
			})
		}
		d.Modules = append(d.Modules, m)
	}
	nCfg := 1 + int(next())%6
	for ci := 0; ci < nCfg; ci++ {
		cfg := design.Configuration{Name: fmt.Sprintf("C%d", ci)}
		for _, m := range d.Modules {
			cfg.Modes = append(cfg.Modes, int(next())%(len(m.Modes)+1))
		}
		d.Configurations = append(d.Configurations, cfg)
	}
	return d
}

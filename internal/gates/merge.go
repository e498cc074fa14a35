package gates

import "fmt"

// Merge wires a set of mapped netlists (the controllers of one design
// arm) into a single circuit: the circuit the flow's netlint gate
// audits and its event simulation runs (sim.FromNetlist keeps its net
// ids). Each part net takes the name NameParts gives it, so port nets
// unify across parts — a channel wire driven by one controller and
// read by another becomes one net — while internal nets stay private
// (two controllers both using y0 or t$5 must not short, even when the
// two controllers share a name). Tied-low nets unify onto the merged
// circuit's own Const0.
//
// The merged primary outputs are every part's outputs in part order
// (they drive the datapath and environment even when also consumed by
// a sibling controller); the merged primary inputs are the part inputs
// no part drives — the environment's side of the handshake.
//
// The parts are only read. The output is sized from them up front,
// and its instances' input lists share one block.
//
// Parts must be structurally well-formed (net ids in range); run
// netlint on the parts first when in doubt.
func Merge(name string, parts []*Netlist) *Netlist {
	names := NameParts(parts)
	var nets, insts, pins, outs, ins, widest int
	for _, p := range parts {
		nets += len(p.NetNames)
		widest = max(widest, len(p.NetNames))
		insts += len(p.Instances)
		for i := range p.Instances {
			pins += len(p.Instances[i].Inputs)
		}
		outs += len(p.Outputs)
		ins += len(p.Inputs)
	}
	out := &Netlist{
		Name:      name,
		NetNames:  make([]string, 0, nets),
		netIndex:  make(map[string]int, nets),
		Outputs:   make([]int, 0, outs),
		Instances: make([]Instance, 0, insts),
		Const0:    -1,
	}
	// Every merged net is some part's net, so nets bounds the ids.
	flags := make([]bool, 3*nets)
	isOut, driven, isIn := flags[:nets], flags[nets:2*nets], flags[2*nets:]
	block := make([]int, pins)
	remap := make([]int, widest)
	partIns := make([]int, 0, ins) // every part input's merged net, in part order
	for pi, p := range parts {
		for id := range p.NetNames {
			if id == p.Const0 {
				remap[id] = out.ConstZero()
			} else {
				remap[id] = out.Net(names[pi].Name(id))
			}
		}
		for _, inst := range p.Instances {
			var pinIDs []int
			if k := len(inst.Inputs); k > 0 {
				pinIDs, block = block[:k:k], block[k:]
				for i, in := range inst.Inputs {
					pinIDs[i] = remap[in]
				}
			}
			o := remap[inst.Output]
			driven[o] = true
			out.Instances = append(out.Instances, Instance{
				Cell: inst.Cell, Inputs: pinIDs, Output: o, Module: inst.Module,
			})
		}
		for _, id := range p.Outputs {
			if m := remap[id]; !isOut[m] {
				isOut[m] = true
				out.Outputs = append(out.Outputs, m)
			}
		}
		for _, id := range p.Inputs {
			partIns = append(partIns, remap[id])
		}
	}
	for _, m := range partIns {
		if !driven[m] && !isIn[m] && !isOut[m] {
			isIn[m] = true
			out.Inputs = append(out.Inputs, m)
		}
	}
	return out
}

// PartNames names one part's nets as Merge names them in the merged
// circuit, so a checker that verifies the parts one by one reports the
// same names as one that reads the merge.
type PartNames struct {
	part   *Netlist
	prefix string
	port   []bool // net id -> a part input or output
}

// NameParts returns the PartNames of each part, in part order. A port
// net (a part input or output) keeps its name, the tied-low net is
// "const0$", and every other net is private, "prefix.net", where the
// prefix is the part's name with a ".2", ".3", ... suffix when an
// earlier part has the same name, so the namespacing stays injective.
func NameParts(parts []*Netlist) []PartNames {
	out := make([]PartNames, len(parts))
	seen := map[string]int{}
	for pi, p := range parts {
		prefix := p.Name
		seen[prefix]++
		if n := seen[prefix]; n > 1 {
			prefix = fmt.Sprintf("%s.%d", prefix, n)
		}
		port := make([]bool, len(p.NetNames))
		for _, id := range p.Inputs {
			port[id] = true
		}
		for _, id := range p.Outputs {
			port[id] = true
		}
		out[pi] = PartNames{part: p, prefix: prefix, port: port}
	}
	return out
}

// Name returns the merged-circuit name of the part's net id.
func (pn PartNames) Name(id int) string {
	switch {
	case id == pn.part.Const0:
		return "const0$"
	case pn.port[id]:
		return pn.part.NetNames[id]
	default:
		return pn.prefix + "." + pn.part.NetNames[id]
	}
}

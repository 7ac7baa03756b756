package telemetry

import (
	"slices"
	"strings"
)

// Resource is the occupancy record of one serialized service center (a
// sim.FIFOResource: PCIe link, QPI hop, NIC side, memory channel, handler
// CPU, device compute engine). Its owner updates the plain fields on every
// occupation; a registry holding it (AddResource) reads it only when
// snapshotted or merged, as four series labeled resource=Name, so
// utilization = busy/elapsed and backlog pressure fall out of the registry
// while a use costs no registry lookup or clock call.
type Resource struct {
	Name string
	// BusyNs accumulates occupied time; WaitNs the time requests spent
	// queued behind earlier occupations; Uses counts occupations; PeakNs is
	// the largest single queue-wait — the worst backlog over the run.
	BusyNs, WaitNs, Uses, PeakNs int64
	// BusyAt, WaitAt, UsesAt and PeakAt are the virtual times at which the
	// matching total last changed.
	BusyAt, WaitAt, UsesAt, PeakAt int64
}

// Resource family names.
const (
	ResourceBusyNs        = "sim_resource_busy_ns"
	ResourceWaitNs        = "sim_resource_wait_ns"
	ResourceUses          = "sim_resource_uses_total"
	ResourcePeakBacklogNs = "sim_resource_peak_backlog_ns"
)

// Observe records one occupation at virtual time now: the request waited
// waitNs behind earlier work, then held the resource for occupyNs.
func (r *Resource) Observe(now, waitNs, occupyNs int64) {
	if occupyNs > 0 {
		r.BusyNs += occupyNs
		r.BusyAt = now
	}
	if waitNs > 0 {
		r.WaitNs += waitNs
		r.WaitAt = now
		if waitNs > r.PeakNs {
			r.PeakNs, r.PeakAt = waitNs, now
		}
	}
	r.Uses++
	r.UsesAt = now
}

// AddResource attaches a resource record to the registry. Records with the
// same name read as one resource. A registry holding records must not
// register the four resource families itself.
func (r *Registry) AddResource(res *Resource) {
	r.resources = append(r.resources, res)
}

// resourceFamilies materializes the registry's resource records as the four
// resource families, their series in name order; nil without records.
func (r *Registry) resourceFamilies() []*family {
	rows := r.resourceRows()
	n := len(rows)
	if n == 0 {
		return nil
	}
	fams := [4]family{
		{name: ResourceBusyNs, help: "accumulated occupied time per serialized resource", kind: KindCounter},
		{name: ResourceWaitNs, help: "accumulated queue-wait time per serialized resource", kind: KindCounter},
		{name: ResourceUses, help: "completed occupations per serialized resource", kind: KindCounter},
		{name: ResourcePeakBacklogNs, help: "largest single queue-wait observed per serialized resource", kind: KindGauge},
	}
	names, slab, ptrs := make([]string, n), make([]series, 4*n), make([]*series, 4*n)
	for i := range rows {
		names[i] = rows[i].Name
		v, row := names[i:i+1:i+1], &rows[i]
		slab[i] = series{key: row.Name, values: v, ival: row.BusyNs, lastNs: row.BusyAt}
		slab[n+i] = series{key: row.Name, values: v, ival: row.WaitNs, lastNs: row.WaitAt}
		slab[2*n+i] = series{key: row.Name, values: v, ival: row.Uses, lastNs: row.UsesAt}
		slab[3*n+i] = series{key: row.Name, values: v, fval: float64(row.PeakNs), lastNs: row.PeakAt}
	}
	out := make([]*family, 4)
	for fi := range fams {
		for i := fi * n; i < (fi+1)*n; i++ {
			ptrs[i] = &slab[i]
		}
		f := &fams[fi]
		f.keys, f.series = resourceKeys, ptrs[fi*n:(fi+1)*n:(fi+1)*n]
		out[fi] = f
	}
	return out
}

// resourceKeys is the label schema of the resource families.
var resourceKeys = []string{"resource"}

// resourceRows returns copies of the registry's resource records sorted by
// name, with equal names folded as the one shared series per family that
// registering them by name would have made: totals add and their stamps
// keep the latest; the peak keeps the larger value and the time a record
// first reached it, as one shared gauge on one clock would have.
func (r *Registry) resourceRows() []Resource {
	rows := make([]Resource, len(r.resources))
	for i, res := range r.resources {
		rows[i] = *res
	}
	slices.SortFunc(rows, func(a, b Resource) int { return strings.Compare(a.Name, b.Name) })
	out := rows[:0]
	for _, row := range rows {
		n := len(out)
		if n == 0 || out[n-1].Name != row.Name {
			out = append(out, row)
			continue
		}
		d := &out[n-1]
		d.BusyNs += row.BusyNs
		d.WaitNs += row.WaitNs
		d.Uses += row.Uses
		d.BusyAt, d.WaitAt, d.UsesAt = max(d.BusyAt, row.BusyAt), max(d.WaitAt, row.WaitAt), max(d.UsesAt, row.UsesAt)
		if row.PeakNs > d.PeakNs || row.PeakNs == d.PeakNs && row.PeakAt < d.PeakAt {
			d.PeakNs, d.PeakAt = row.PeakNs, row.PeakAt
		}
	}
	return out
}

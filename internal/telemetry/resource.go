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

// resourceFamilies are the four families a resource record reads as, in
// name order. They hold no series: snapshots read them off the records.
var resourceFamilies = [...]family{
	{name: ResourceBusyNs, help: "accumulated occupied time per serialized resource", kind: KindCounter, keys: resourceKeys},
	{name: ResourcePeakBacklogNs, help: "largest single queue-wait observed per serialized resource", kind: KindGauge, keys: resourceKeys},
	{name: ResourceUses, help: "completed occupations per serialized resource", kind: KindCounter, keys: resourceKeys},
	{name: ResourceWaitNs, help: "accumulated queue-wait time per serialized resource", kind: KindCounter, keys: resourceKeys},
}

// resourceKeys is the label schema of the resource families.
var resourceKeys = []string{"resource"}

// sample returns the record's value and stamp in resourceFamilies[fi].
func (r *Resource) sample(fi int) (v, at int64) {
	switch fi {
	case 0:
		return r.BusyNs, r.BusyAt
	case 1:
		return r.PeakNs, r.PeakAt
	case 2:
		return r.Uses, r.UsesAt
	default:
		return r.WaitNs, r.WaitAt
	}
}

// shardRecord is a resource record and the index of the shard registry
// holding it.
type shardRecord struct {
	res   *Resource
	shard int
}

// appendRecords appends the registry's records, tagged with shard, to recs.
func (r *Registry) appendRecords(recs []shardRecord, shard int) []shardRecord {
	for _, res := range r.resources {
		recs = append(recs, shardRecord{res, shard})
	}
	return recs
}

// resourceRows returns the registry's resource records folded to rows
// sorted by name, one per name. Records that are so already, as MergeShards
// and Merge leave them, are returned as they are.
func (r *Registry) resourceRows() []*Resource {
	res := r.resources
	for i := 1; i < len(res); i++ {
		if res[i-1].Name >= res[i].Name {
			return foldRecords(r.appendRecords(nil, 0))
		}
	}
	return res
}

// foldRecords returns copies of the records sorted by name, with equal
// names folded into one row. Within one shard, records of one name fold as
// the one shared series per family that registering them by name would
// have made: totals add and their stamps keep the latest; the peak keeps
// the larger value and the time a record first reached it, as one shared
// gauge on one clock would have. Across shards the per-shard rows fold by
// Registry.Merge's rules: totals add, the peak keeps the larger value, and
// every stamp keeps the latest.
func foldRecords(recs []shardRecord) []*Resource {
	slices.SortFunc(recs, func(a, b shardRecord) int {
		if c := strings.Compare(a.res.Name, b.res.Name); c != 0 {
			return c
		}
		return a.shard - b.shard
	})
	rows := make([]Resource, 0, len(recs))
	for i := 0; i < len(recs); {
		row := *recs[i].res
		for i++; i < len(recs) && recs[i].shard == recs[i-1].shard && recs[i].res.Name == row.Name; i++ {
			row.fold(recs[i].res)
			if p := recs[i].res; p.PeakNs > row.PeakNs || p.PeakNs == row.PeakNs && p.PeakAt < row.PeakAt {
				row.PeakNs, row.PeakAt = p.PeakNs, p.PeakAt
			}
		}
		n := len(rows)
		if n == 0 || rows[n-1].Name != row.Name {
			rows = append(rows, row)
			continue
		}
		d := &rows[n-1]
		d.fold(&row)
		d.PeakNs, d.PeakAt = max(d.PeakNs, row.PeakNs), max(d.PeakAt, row.PeakAt)
	}
	out := make([]*Resource, len(rows))
	for i := range rows {
		out[i] = &rows[i]
	}
	return out
}

// fold adds src's totals into r, keeping each total's latest stamp.
func (r *Resource) fold(src *Resource) {
	r.BusyNs += src.BusyNs
	r.WaitNs += src.WaitNs
	r.Uses += src.Uses
	r.BusyAt, r.WaitAt, r.UsesAt = max(r.BusyAt, src.BusyAt), max(r.WaitAt, src.WaitAt), max(r.UsesAt, src.UsesAt)
}

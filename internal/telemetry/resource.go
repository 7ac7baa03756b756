package telemetry

// Resource is the occupancy record of one serialized service center (a
// sim.FIFOResource: PCIe link, QPI hop, NIC side, memory channel, handler
// CPU, device compute engine). Its owner calls Observe on every
// occupation; a registry holding it (AddRecord) reads it as four series
// labeled resource=Name, so utilization = busy/elapsed and backlog
// pressure fall out of the registry while a use costs no registry lookup
// or clock call.
type Resource struct {
	Name string
	// s holds, in resourceSchema's order, the accumulated occupied time,
	// the largest single queue-wait (the worst backlog over the run), the
	// number of occupations and the time requests spent queued behind
	// earlier occupations, each with the virtual time it last changed.
	s [4]Sample
}

// Resource family names.
const (
	ResourceBusyNs        = "sim_resource_busy_ns"
	ResourceWaitNs        = "sim_resource_wait_ns"
	ResourceUses          = "sim_resource_uses_total"
	ResourcePeakBacklogNs = "sim_resource_peak_backlog_ns"
)

// The samples of a resource record.
const (
	resBusy = iota
	resPeak
	resUses
	resWait
)

// resourceSchema is the four families a resource record reads as.
var resourceSchema = NewRecordSchema(
	NewFamily(ResourceBusyNs, "accumulated occupied time per serialized resource", KindCounter, "resource"),
	NewFamily(ResourcePeakBacklogNs, "largest single queue-wait observed per serialized resource", KindGauge, "resource"),
	NewFamily(ResourceUses, "completed occupations per serialized resource", KindCounter, "resource"),
	NewFamily(ResourceWaitNs, "accumulated queue-wait time per serialized resource", KindCounter, "resource"),
)

// Record returns the resource's schema, name and samples.
func (r *Resource) Record() (*RecordSchema, string, []Sample) { return resourceSchema, r.Name, r.s[:] }

// Observe records one occupation at virtual time now: the request waited
// waitNs behind earlier work, then held the resource for occupyNs.
func (r *Resource) Observe(now, waitNs, occupyNs int64) {
	r.s[resBusy].Add(occupyNs, now)
	if waitNs > 0 {
		r.s[resWait].Add(waitNs, now)
		r.s[resPeak].SetMax(waitNs, now)
	}
	r.s[resUses].V++
	r.s[resUses].At = now
}

// BusyNs reports the accumulated occupied time.
func (r *Resource) BusyNs() int64 { return r.s[resBusy].V }

package clocked

// AuditPortScan walks memory through the fabric port from an audit
// file: the functional Read is scheduled by the arbiter and charged to
// the clock, perturbing the audited run's accounting.
func (e *Engine) AuditPortScan() (uint64, error) {
	return e.port.Read(0) // want `Read issues clock-charged membus\.Port traffic from audit file audit.go`
}

// AuditRepairWrite repairs through the functional port from an audit
// file, also flagged.
func (e *Engine) AuditRepairWrite(addr int, w uint64) error {
	return e.port.Write(addr, w) // want `Write issues clock-charged membus\.Port traffic from audit file audit.go`
}

// AuditComposite calls higher-level operations; only direct Port
// traffic is flagged, so this is the false-positive guard (recovery
// engines like Rebuild legitimately pay functional cost through
// package APIs).
func (e *Engine) AuditComposite() {
	e.GoodDocumented()
	e.GoodNamedConstant()
}

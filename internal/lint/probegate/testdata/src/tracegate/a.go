// Fixture for probegate's request-tracer rule: guarded and unguarded
// sampling calls on *reqtrace.Tracer values.
package tracegate

import (
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/reqtrace"
)

type pni struct {
	tracer   *reqtrace.Tracer
	concrete *reqtrace.Tracer
}

// unguarded samples without any nil check: all three sites are flagged.
func (p *pni) unguarded(id uint64, ev obs.Event) msg.TraceCtx {
	p.concrete.Emit(ev)            // want `reqtrace sampling call on p\.concrete without a dominating nil check`
	_ = p.concrete.ContextFor(id)  // want `reqtrace sampling call on p\.concrete without a dominating nil check`
	return p.tracer.ContextFor(id) // want `reqtrace sampling call on p\.tracer without a dominating nil check`
}

// enclosingGuard is the canonical issue-path shape.
func (p *pni) enclosingGuard(id uint64, req *msg.Request) {
	if p.tracer != nil {
		req.TC = p.tracer.ContextFor(id)
	}
}

// earlyReturn guards the rest of the function body.
func (p *pni) earlyReturn(id uint64) msg.TraceCtx {
	if p.concrete == nil {
		return msg.TraceCtx{}
	}
	return p.concrete.ContextFor(id)
}

// conjunctGuard allows the nil check to be one && conjunct.
func (p *pni) conjunctGuard(ev obs.Event, traced bool) {
	if p.concrete != nil && traced {
		p.concrete.Emit(ev)
	}
}

// wrongGuard checks one tracer but samples through another: flagged.
func (p *pni) wrongGuard(other *reqtrace.Tracer, id uint64) {
	if other != nil {
		_ = p.concrete.ContextFor(id) // want `reqtrace sampling call on p\.concrete without a dominating nil check`
	}
}

// coldPath is not a sampling entry point: exports run once at shutdown
// on a tracer the caller already vetted, so they are not guarded here.
func coldPath(t *reqtrace.Tracer) int64 {
	return t.Completed()
}

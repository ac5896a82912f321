// Verb-call classification shared by the verbplan and lockverb
// checkers.

package analysis

import (
	"go/ast"
	"go/types"
)

// RDMAPath is the import path of the transport package whose verb API
// the analyzers guard. When the pluggable-transport refactor lands, the
// Transport interface's methods join endpointVerbs and the checkers
// follow without restructuring.
const RDMAPath = "ditto/internal/rdma"

// ExecPath is the verb-plan executor's import path.
const ExecPath = "ditto/internal/exec"

// endpointVerbs are the rdma.Endpoint methods that put traffic on the
// wire: the one-sided verbs, the doorbell batch post, and the two-sided
// RPC. Accessors (Proc, Node) are not verbs.
var endpointVerbs = map[string]bool{
	"Read":       true,
	"Write":      true,
	"WriteAsync": true,
	"CAS":        true,
	"FAA":        true,
	"FAAAsync":   true,
	"PostBatch":  true,
	"RPC":        true,
}

// RDMAVerb reports whether call issues an rdma verb — an
// rdma.Endpoint verb method, or the package-level rdma.PostMulti
// multi-endpoint doorbell — returning a display name like
// "rdma.Endpoint.Read".
func RDMAVerb(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := CalleeFunc(info, call)
	if fn == nil || FuncPkgPath(fn) != RDMAPath {
		return "", false
	}
	if recv := ReceiverNamed(fn); recv != nil {
		if recv.Obj().Name() == "Endpoint" && endpointVerbs[fn.Name()] {
			return "rdma.Endpoint." + fn.Name(), true
		}
		return "", false
	}
	if fn.Name() == "PostMulti" {
		return "rdma.PostMulti", true
	}
	return "", false
}

// BlockingVerbIssue reports whether call can block on verb traffic:
// a direct rdma verb, or a plan-executor entry point — the runners'
// methods (Runner.RunPlans, SerialRunner.Run, DoorbellRunner.Run)
// — which issue verbs on the caller's behalf.
func BlockingVerbIssue(info *types.Info, call *ast.CallExpr) (string, bool) {
	if name, ok := RDMAVerb(info, call); ok {
		return name, true
	}
	fn := CalleeFunc(info, call)
	if fn == nil || FuncPkgPath(fn) != ExecPath {
		return "", false
	}
	if recv := ReceiverNamed(fn); recv != nil {
		switch recv.Obj().Name() {
		case "Runner":
			if fn.Name() == "RunPlans" {
				return "exec.Runner." + fn.Name(), true
			}
		case "SerialRunner", "DoorbellRunner":
			if fn.Name() == "Run" {
				return "exec." + recv.Obj().Name() + ".Run", true
			}
		}
	}
	return "", false
}

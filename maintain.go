package khop

import "repro/internal/mobility"

// Role classifies a departing node per the paper's §3.3 maintenance
// discussion.
type Role = mobility.Role

// Node roles for maintenance classification.
const (
	RoleMember  = mobility.RoleMember
	RoleGateway = mobility.RoleGateway
	RoleHead    = mobility.RoleHead
)

// EventKind identifies which churn event a RepairReport repaired.
type EventKind = mobility.EventKind

// Churn event kinds, mirrored into RepairReport.Kind.
const (
	EventLeave = mobility.EventLeave
	EventJoin  = mobility.EventJoin
	EventMove  = mobility.EventMove
)

// RepairReport quantifies the repair triggered by one churn event,
// including the batch's gateway-coalescing stats.
type RepairReport = mobility.RepairReport

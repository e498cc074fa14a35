package hazver

// AuditInterpreted is the interpreted reference audit, for the
// external fuzz target.
var AuditInterpreted = auditInterpreted

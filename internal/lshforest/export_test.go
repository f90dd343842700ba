package lshforest

// ResetTables forgets every shape's table, so that a test counts the tables
// computed from its start.
func ResetTables() {
	tables.Clear()
	tablesComputed.Store(0)
}

// TablesComputed returns how many tables were computed since the last
// ResetTables.
func TablesComputed() int64 { return tablesComputed.Load() }

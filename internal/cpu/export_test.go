package cpu

// CalendarOverflow reports how many events the core's completion calendar
// holds in its overflow list.
func (c *Core) CalendarOverflow() int { return len(c.cal.over) }

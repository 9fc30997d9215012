package cpu

import "math"

// CalendarOverflow reports how many events the core's completion calendar
// holds in its overflow list.
func (c *Core) CalendarOverflow() int { return len(c.cal.over) }

// HoldROBHead keeps the ROB head from completing: once the head has issued,
// its completion time moves to never. Calling it before every step stands
// in for a pipeline defect that stops commit.
func (c *Core) HoldROBHead() {
	if h := c.rob.headSlot(); h >= 0 && c.rob.flags[h]&robIssued != 0 {
		c.rob.doneAt[h] = math.MaxInt64
	}
}

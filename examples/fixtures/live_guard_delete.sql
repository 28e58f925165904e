-- Not a dead store: statements 1 and 3 share the guard
-- `exists (select * from Fire)`, but statement 2 deletes from Fire, so
-- the guard may hold at statement 1 and fail at statement 3. Any delete
-- ends the dead-store scan, so no R0201 is reported (and the planner
-- nets nothing).

update Employee set Salary = (select Old from NewSal)
  where exists (select * from Fire);

delete from Fire where exists (select * from NewSal);

update Employee set Salary = (select New from NewSal)
  where exists (select * from Fire)

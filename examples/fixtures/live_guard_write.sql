-- Not a dead store: statements 1 and 3 share the guard `Manager = EmpId`
-- and write Salary, and nothing reads Salary in between, but statement 2
-- rewrites Manager, which that guard reads. Statement 3 may select rows
-- statement 1 did not, and statement 1's values survive on the rest, so
-- no R0201 is reported (and the planner nets nothing).

update Employee set Salary = (select Old from NewSal) where Manager = EmpId;

update Employee set Manager =
  (select E1.EmpId from Employee E1 where E1.Manager = E1.EmpId);

update Employee set Salary = (select New from NewSal) where Manager = EmpId

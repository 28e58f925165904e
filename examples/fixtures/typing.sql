-- Assignment typing: an update's value column must hold objects of the
-- class the assigned column holds. Each ill-typed statement below is an
-- R0002 error, and it no longer compiles (at run time it would fail on
-- the first value with an ill-typed edge and roll back).
--
-- Statement 1: `Salary` holds `Amount` objects; `EmpId` is the tuple
-- itself, an `Employee`.
-- Statement 2: `Manager` holds `Employee` objects; `Fire.Amount` holds
-- `Amount` objects.
-- Statement 3: the cursor form of statement 2.
-- Statement 4: the cursor form of statement 2 under a guard.
-- Statement 5: well typed: `E1.Manager` holds `Employee` objects, so it
-- compiles and gets its usual verdict.

update Employee set Salary = (select EmpId from Employee);

update Employee set Manager = (select Amount from Fire);

for each t in Employee do update t set Manager = (select Amount from Fire);

for each t in Employee do if t.Salary in table Fire
  update t set Manager = (select Amount from Fire);

update Employee set Manager =
  (select E1.Manager from Employee E1 where E1.EmpId = Manager)

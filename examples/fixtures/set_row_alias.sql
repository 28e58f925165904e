-- A set statement's row binds as `t`, the name `compile`, the
-- interpreter and the planner give it: `t.Salary` below is the row's
-- salary, so statement 1 resolves (no R0005 "unknown alias `t`").
--
-- Statements 2 and 3 are a `t.`-qualified guard pair: statement 3
-- rewrites every manager statement 2 wrote, under the same guard, so
-- R0201 fires on statement 2 exactly as for the unqualified spelling.

update Employee set Salary = (select New from NewSal where Old = t.Salary)
  where t.Salary in table Fire;

update Employee set Manager = (select E1.Manager from Employee E1 where E1.EmpId = t.EmpId)
  where t.Salary in table Fire;

update Employee set Manager = (select E1.EmpId from Employee E1 where E1.EmpId = t.EmpId)
  where t.Salary in table Fire

-- A dead store under a different guard: statement 1's guard implies
-- statement 2's (every self-managed employee with a fired salary is
-- self-managed), nothing between them reads Salary or writes Manager,
-- so statement 2 rewrites every salary statement 1 wrote. R0201 fires
-- with the solver's proof, and the planner skips statement 1.

update Employee set Salary = (select Old from NewSal)
  where Manager = EmpId and Salary in table Fire;

update Employee set Salary = (select New from NewSal) where Manager = EmpId

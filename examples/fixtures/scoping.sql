-- Name-resolution fixtures: every column reference resolves by the one
-- rule the interpreter evaluates by. A qualified name reads the innermost
-- binding with that alias; an unqualified name reads the row when its
-- table has the column, else the outermost FROM table that does.
--
-- Statement 1: the paper's simple delete with its guard qualified by the
-- cursor variable — the same coloring certificate (R0101) as the
-- unqualified form.
-- Statement 2: a nested FROM reuses the alias `E`; `E.Old` is the inner
-- NewSal's column, so no R0004.
-- Statement 3: a FROM alias `t` shadows the cursor variable; `t.Old` is
-- NewSal's column, so no R0004.
-- Statement 4: `New` is a column of both N and M. It resolves to N, the
-- outermost, but the reader is asked to qualify it (R0004).

for each t in Employee do if t.Salary in table Fire delete t from Employee;

delete from Employee where exists (select * from Employee E
  where exists (select * from NewSal E where E.Old = Salary));

for each t in Employee do if exists (select * from NewSal t where t.Old = Salary)
  delete t from Employee;

update Employee set Salary = (select New from NewSal N, NewSal M where N.Old = Salary)

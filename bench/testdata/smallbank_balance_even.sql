-- SmallBank Balance as registered (Figure 10): the program patch-churn
-- installs at even workload versions. Identical to the hand-built program,
-- so even versions keep the registration's answers.
PROGRAM Balance(:name):
  SELECT CustomerId INTO :c FROM Account WHERE Name = :name;  -- q6
  SELECT Balance INTO :sb FROM Savings WHERE CustomerId = :c;   -- q7
  SELECT Balance INTO :cb FROM Checking WHERE CustomerId = :c;  -- q8
  -- @fk q7 = fS(q6)
  -- @fk q8 = fC(q6)
COMMIT;

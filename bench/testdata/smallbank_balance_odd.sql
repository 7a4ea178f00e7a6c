-- SmallBank Balance that credits interest while reporting: the program
-- patch-churn installs at odd workload versions. The savings read becomes
-- an update, which changes the robust subsets that contain Balance.
PROGRAM Balance(:name):
  SELECT CustomerId INTO :c FROM Account WHERE Name = :name;  -- q6
  UPDATE Savings SET Balance = Balance + :interest WHERE CustomerId = :c
    RETURNING Balance INTO :sb;  -- q7
  SELECT Balance INTO :cb FROM Checking WHERE CustomerId = :c;  -- q8
  -- @fk q7 = fS(q6)
  -- @fk q8 = fC(q6)
COMMIT;

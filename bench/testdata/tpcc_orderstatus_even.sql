-- TPC-C OrderStatus as registered (Figure 17): the program patch-churn
-- installs at even workload versions. Identical to the hand-built program,
-- so even versions keep the registration's answers.
PROGRAM OrderStatus(:w, :d, :c, :last):
  IF :by_last_name THEN
    SELECT c_id, c_first, c_middle, c_balance INTO :c, :first, :middle, :balance
      FROM Customer WHERE c_w_id = :w AND c_d_id = :d AND c_last = :last;  -- q16
  ELSE
    SELECT c_first, c_middle, c_last, c_balance INTO :first, :middle, :last, :balance
      FROM Customer WHERE c_id = :c AND c_d_id = :d AND c_w_id = :w;  -- q17
  ENDIF;
  SELECT o_id, o_entry_id, o_carrier_id INTO :o, :entry, :carrier
    FROM Orders WHERE o_c_id = :c AND o_d_id = :d AND o_w_id = :w;  -- q18
  SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d
    FROM Order_Line WHERE ol_o_id = :o AND ol_d_id = :d AND ol_w_id = :w;  -- q19
  -- @fk q17 = f7(q18)
COMMIT;

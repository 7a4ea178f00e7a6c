-- TPC-C OrderStatus that acknowledges the delivery of the order it reports:
-- the program patch-churn installs at odd workload versions. The order-line
-- read becomes an update, which changes the robust subsets that contain
-- OrderStatus.
PROGRAM OrderStatus(:w, :d, :c, :last):
  SELECT c_first, c_middle, c_last, c_balance INTO :first, :middle, :last, :balance
    FROM Customer WHERE c_id = :c AND c_d_id = :d AND c_w_id = :w;  -- q17
  SELECT o_id, o_entry_id, o_carrier_id INTO :o, :entry, :carrier
    FROM Orders WHERE o_c_id = :c AND o_d_id = :d AND o_w_id = :w;  -- q18
  UPDATE Order_Line SET ol_delivery_d = :seen
    WHERE ol_o_id = :o AND ol_d_id = :d AND ol_w_id = :w;  -- q19
  -- @fk q17 = f7(q18)
COMMIT;

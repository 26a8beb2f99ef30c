type params = {
  ell : int;
  k : int;
  n_chains : int;
  n_tasks : int;
  p : int;
}

let params ~ell =
  if ell < 1 then invalid_arg "Arbitrary_lb.params: ell must be >= 1";
  if ell > 5 then
    invalid_arg "Arbitrary_lb.params: ell > 5 overflows chain counts";
  let k = 1 lsl ell in
  let n_chains = (1 lsl k) - 1 in
  let n_tasks = (1 lsl (k + 1)) - k - 2 in
  let p = k * (1 lsl (k - 1)) in
  { ell; k; n_chains; n_tasks; p }

let log2 x = log x /. log 2.

let exec_time p =
  if p < 1 then invalid_arg "Arbitrary_lb.exec_time: p must be >= 1";
  1. /. (log2 (float_of_int p) +. 1.)

let adversary_gap_sum ~ell =
  let k = 1 lsl ell in
  let acc = ref 0. in
  for i = 1 to k do
    acc := !acc +. (1. /. float_of_int (ell + i))
  done;
  !acc

let log_gap ~ell =
  let k = float_of_int (1 lsl ell) in
  let l = float_of_int ell in
  log k -. log l -. (1. /. l)

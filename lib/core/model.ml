type latencies = Memsim.Hierarchy.latencies

let log2 x = log x /. log 2.

let miss_rate ~d ~k ~r =
  if d <= 0. then invalid_arg "Model.miss_rate: d <= 0";
  if k < 1. then invalid_arg "Model.miss_rate: k < 1";
  if r < 0. || r > d then invalid_arg "Model.miss_rate: r outside [0, d]";
  (1. -. (r /. d)) /. k

let amortized_miss_rate ~m ~p =
  if p <= 0 then invalid_arg "Model.amortized_miss_rate: p <= 0";
  let sum = ref 0. in
  for i = 1 to p do
    sum := !sum +. m i
  done;
  !sum /. float_of_int p

let memory_access_time (lat : latencies) ~ml1 ~ml2 ~refs =
  let th = float_of_int lat.Memsim.Hierarchy.l1_hit in
  let tm1 = float_of_int lat.l1_miss in
  let tm2 = float_of_int lat.l2_miss in
  (th +. (ml1 *. tm1) +. (ml1 *. ml2 *. tm2)) *. refs

let speedup lat ~naive ~cc =
  let m1n, m2n = naive and m1c, m2c = cc in
  memory_access_time lat ~ml1:m1n ~ml2:m2n ~refs:1.
  /. memory_access_time lat ~ml1:m1c ~ml2:m2c ~refs:1.

let worst_case_naive = (1., 1.)

module Ctree = struct
  let d ~n = log2 (float_of_int (n + 1))
  let k ~block_elems = log2 (float_of_int (block_elems + 1))

  let k_depth_first ~block_elems =
    2. *. (1. -. (0.5 ** float_of_int block_elems))

  let k_weighted ~block_elems ~p =
    if p < 0. || p > 1. then
      invalid_arg "Model.Ctree.k_weighted: p outside [0, 1]";
    if p >= 1. then float_of_int block_elems
    else (1. -. (p ** float_of_int block_elems)) /. (1. -. p)

  let r_s ~sets ~assoc ~block_elems ~color_frac =
    log2
      ((color_frac *. float_of_int (sets * block_elems * assoc)) +. 1.)

  let miss_rate_k ~n ~sets ~assoc ~block_elems ~color_frac ~k =
    if k < 1. then invalid_arg "Model.Ctree.miss_rate_k: k < 1";
    let d = d ~n in
    let rs = Float.min d (r_s ~sets ~assoc ~block_elems ~color_frac) in
    Float.max 0. ((1. -. (rs /. d)) /. k)

  let miss_rate ~n ~sets ~assoc ~block_elems ~color_frac =
    miss_rate_k ~n ~sets ~assoc ~block_elems ~color_frac ~k:(k ~block_elems)

  let transient_miss_rate ~i ~n ~sets ~assoc ~block_elems ~color_frac =
    if i < 1 then invalid_arg "Model.Ctree.transient_miss_rate: i < 1";
    let d = d ~n in
    let k = k ~block_elems in
    let rs = Float.min d (r_s ~sets ~assoc ~block_elems ~color_frac) in
    let h = color_frac *. float_of_int (sets * assoc) in
    let per_search = rs /. k in
    let resident = 1. -. ((1. -. (per_search /. h)) ** float_of_int i) in
    let r = rs *. resident in
    Float.max 0. ((1. -. (r /. d)) /. k)

  let predicted_speedup ~lat ~n ~sets ~assoc ~block_elems ~color_frac ~ml1_cc =
    let ml2_cc = miss_rate ~n ~sets ~assoc ~block_elems ~color_frac in
    speedup lat ~naive:worst_case_naive ~cc:(ml1_cc, ml2_cc)
end

module Multilevel = struct
  let path_transfers ~d ~block_elems =
    if block_elems < 1 then
      invalid_arg "Model.Multilevel.path_transfers: block_elems < 1";
    if d <= 0. then invalid_arg "Model.Multilevel.path_transfers: d <= 0";
    d /. log2 (float_of_int (block_elems + 1))
end

type t =
  | Roofline of { w : float; ptilde : int }
  | Communication of { w : float; c : float }
  | Amdahl of { w : float; d : float }
  | General of { w : float; ptilde : int; d : float; c : float }
  | Power of { w : float; alpha : float }
  | Arbitrary of { name : string; time : int -> float }

type kind = Kind_roofline | Kind_communication | Kind_amdahl | Kind_general
          | Kind_power | Kind_arbitrary

let kind = function
  | Roofline _ -> Kind_roofline
  | Communication _ -> Kind_communication
  | Amdahl _ -> Kind_amdahl
  | General _ -> Kind_general
  | Power _ -> Kind_power
  | Arbitrary _ -> Kind_arbitrary

let kind_name = function
  | Kind_roofline -> "roofline"
  | Kind_communication -> "communication"
  | Kind_amdahl -> "amdahl"
  | Kind_general -> "general"
  | Kind_power -> "power"
  | Kind_arbitrary -> "arbitrary"

(* The range checks come first, so a finite value keeps the message it
   always had.  A value past them that is infinite or NaN (a wire number
   such as [1e400] reads as infinity) is rejected after them: it gives no
   finite execution time, and a simulation cannot schedule it. *)
let validate = function
  | Roofline { w; ptilde } ->
    if w <= 0. then Error "roofline: w must be > 0"
    else if ptilde < 1 then Error "roofline: ptilde must be >= 1"
    else if not (Float.is_finite w) then Error "roofline: w must be finite"
    else Ok ()
  | Communication { w; c } ->
    if w <= 0. then Error "communication: w must be > 0"
    else if c <= 0. then Error "communication: c must be > 0"
    else if not (Float.is_finite w) then Error "communication: w must be finite"
    else if not (Float.is_finite c) then Error "communication: c must be finite"
    else Ok ()
  | Amdahl { w; d } ->
    if w <= 0. then Error "amdahl: w must be > 0"
    else if d <= 0. then Error "amdahl: d must be > 0"
    else if not (Float.is_finite w) then Error "amdahl: w must be finite"
    else if not (Float.is_finite d) then Error "amdahl: d must be finite"
    else Ok ()
  | General { w; ptilde; d; c } ->
    if w <= 0. then Error "general: w must be > 0"
    else if ptilde < 1 then Error "general: ptilde must be >= 1"
    else if d < 0. then Error "general: d must be >= 0"
    else if c < 0. then Error "general: c must be >= 0"
    else if not (Float.is_finite w) then Error "general: w must be finite"
    else if not (Float.is_finite d) then Error "general: d must be finite"
    else if not (Float.is_finite c) then Error "general: c must be finite"
    else Ok ()
  | Power { w; alpha } ->
    if w <= 0. then Error "power: w must be > 0"
    else if not (alpha > 0. && alpha <= 1.) then
      Error "power: alpha must be in (0, 1]"
    else if not (Float.is_finite w) then Error "power: w must be finite"
    else Ok ()
  | Arbitrary { time; _ } ->
    if time 1 <= 0. then Error "arbitrary: t(1) must be > 0" else Ok ()

(* Equation (1) with the named cases' missing parameters at their neutral
   values (ptilde = max_int, d = 0, c = 0): adding [0.] to a positive sum
   and multiplying [0.] by [p - 1 >= 0] change no bit, so each named case
   evaluates to what its own formula gives. *)
let[@inline] closed_time ~w ~ptilde ~d ~c p =
  (w /. float_of_int (Int.min p ptilde)) +. d +. (c *. (float_of_int p -. 1.))

(* [time] of a model given by a formula, every model but [Arbitrary].  Its
   result stays unboxed where it inlines; the call in [Arbitrary]'s branch
   would box every branch's result. *)
let[@inline] formula_time m p =
  match m with
  | Roofline { w; ptilde } -> closed_time ~w ~ptilde ~d:0. ~c:0. p
  | Communication { w; c } -> closed_time ~w ~ptilde:max_int ~d:0. ~c p
  | Amdahl { w; d } -> closed_time ~w ~ptilde:max_int ~d ~c:0. p
  | General { w; ptilde; d; c } -> closed_time ~w ~ptilde ~d ~c p
  | Power { w; alpha } -> w /. (float_of_int p ** alpha)
  | Arbitrary _ -> raise (Invalid_argument "Speedup.formula_time: arbitrary")

let time m p =
  if p < 1 then invalid_arg "Speedup.time: p must be >= 1";
  match m with
  | Arbitrary { time; _ } -> time p
  | Roofline _ | Communication _ | Amdahl _ | General _ | Power _ ->
    formula_time m p

let[@inline] put dst off ~w ~ptilde ~d ~c =
  dst.(off) <- w;
  dst.(off + 1) <- d;
  dst.(off + 2) <- c;
  ptilde

(* The same neutral values as [time]. *)
let store_closed m dst off =
  match m with
  | Roofline { w; ptilde } -> put dst off ~w ~ptilde ~d:0. ~c:0.
  | Communication { w; c } -> put dst off ~w ~ptilde:max_int ~d:0. ~c
  | Amdahl { w; d } -> put dst off ~w ~ptilde:max_int ~d ~c:0.
  | General { w; ptilde; d; c } -> put dst off ~w ~ptilde ~d ~c
  | Power _ | Arbitrary _ -> 0

let flat_time wdc off ~ptilde p =
  closed_time ~w:wdc.(off) ~ptilde ~d:wdc.(off + 1) ~c:wdc.(off + 2) p

(* [Fcmp.leq (time m q) bound], boxing no float on a formula model. *)
let[@inline] within m q bound =
  match m with
  | Arbitrary { time; _ } -> Moldable_util.Fcmp.leq (time q) bound
  | Roofline _ | Communication _ | Amdahl _ | General _ | Power _ ->
    Moldable_util.Fcmp.leq (formula_time m q) bound

(* pbar of Equation (5): the integer neighbour of s = sqrt(w/c) with the
   smaller execution time; meaningful only when c > 0.  The continuous
   optimum is clamped to [1, P] before integer conversion: [int_of_float]
   is unspecified outside the [int] range, and extreme parameters (huge [w],
   tiny [c]) push [s] past it — callers take [min p] anyway, so clamping
   loses nothing.  The lo/hi tie-break is tolerant so that a difference
   within rounding noise resolves to the smaller allocation. *)
let pbar ~w ~ptilde ~d ~c ~p =
  let s = sqrt (w /. c) and fp = float_of_int p in
  let s = if s < 1. then 1. else if s > fp then fp else s in
  let lo = Int.max 1 (int_of_float (floor s)) in
  let hi = Int.max lo (int_of_float (ceil s)) in
  if
    Moldable_util.Fcmp.leq
      (closed_time ~w ~ptilde ~d ~c lo)
      (closed_time ~w ~ptilde ~d ~c hi)
  then lo
  else hi

let closed_p_max ~p m =
  match m with
  | Roofline { ptilde; _ } -> Int.min p ptilde
  | Communication { w; c } ->
    Int.min p (pbar ~w ~ptilde:max_int ~d:0. ~c ~p)
  | Amdahl _ -> p
  | General { w; ptilde; d; c } ->
    if c > 0. then Int.min p (Int.min ptilde (pbar ~w ~ptilde ~d ~c ~p))
    else Int.min p ptilde
  | Power _ -> p (* strictly decreasing execution time *)
  | Arbitrary _ -> -1

(* Invariant of the bisection: not (feasible lo) && feasible hi. *)
let smallest_within m ~p_max bound =
  if within m 1 bound then 1
  else begin
    let lo = ref 1 and hi = ref p_max in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if within m mid bound then hi := mid else lo := mid
    done;
    !hi
  end

let area m p = float_of_int p *. time m p
let speedup m p = time m 1 /. time m p
let canonical_general = function
  | Roofline { w; ptilde } -> Some (General { w; ptilde; d = 0.; c = 0. })
  | Communication { w; c } -> Some (General { w; ptilde = max_int; d = 0.; c })
  | Amdahl { w; d } -> Some (General { w; ptilde = max_int; d; c = 0. })
  | General _ as g -> Some g
  | Power _ | Arbitrary _ -> None

let pp ppf = function
  | Roofline { w; ptilde } ->
    Format.fprintf ppf "roofline(w=%g, ptilde=%d)" w ptilde
  | Communication { w; c } -> Format.fprintf ppf "comm(w=%g, c=%g)" w c
  | Amdahl { w; d } -> Format.fprintf ppf "amdahl(w=%g, d=%g)" w d
  | General { w; ptilde; d; c } ->
    if ptilde = max_int then
      Format.fprintf ppf "general(w=%g, ptilde=inf, d=%g, c=%g)" w d c
    else Format.fprintf ppf "general(w=%g, ptilde=%d, d=%g, c=%g)" w ptilde d c
  | Power { w; alpha } -> Format.fprintf ppf "power(w=%g, alpha=%g)" w alpha
  | Arbitrary { name; _ } -> Format.fprintf ppf "arbitrary(%s)" name

let to_string m = Format.asprintf "%a" pp m

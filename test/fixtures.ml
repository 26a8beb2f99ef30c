(* Helpers shared by the test suites that no program calls: random draws
   for building instances and a constant-allocation rule. *)

open Moldable_util

(* Fair coin: the lowest bit of the next raw output. *)
let coin rng = Int64.logand (Rng.int64 rng) 1L = 1L

(* Uniform element of a non-empty array. *)
let choose rng arr =
  if Array.length arr = 0 then invalid_arg "Fixtures.choose: empty array";
  arr.(Rng.int rng (Array.length arr))

(* An independent generator in the same state.  [Rng.t] is abstract and
   plain data, so a marshalling round trip copies it. *)
let copy_rng (rng : Rng.t) : Rng.t =
  Marshal.from_string (Marshal.to_string rng []) 0

(* Every task on [q] processors, clamped to [[1, P]]. *)
let fixed_allocator q =
  Moldable_core.Allocator.make
    ~name:(Printf.sprintf "fixed(%d)" q)
    (fun ~p ~p_max:_ _ -> Int.max 1 (Int.min q p))

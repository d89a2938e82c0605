(* Order statistics over recorded samples. Quantiles are exact (the
   samples are kept and sorted), using the nearest-rank definition. *)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = quantile xs 0.5

let median_list xs = median (Array.of_list xs)

let mean xs =
  if Array.length xs = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* a growable float buffer: the load threads append one latency per op *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let to_array s = Array.sub s.a 0 s.n
let count s = s.n

let ratio num den = if den = 0.0 then 0.0 else num /. den

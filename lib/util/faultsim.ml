(* Deterministic fault injection. See faultsim.mli for the contract;
   the implementation is a tiny rule table behind a mutex. The disabled
   plan is the [Off] constructor, so the production probe
   ([fire _ Off = false]) is one branch and no allocation.

   Two kinds of rules share one plan: one-shot rules (fire exactly once,
   on a chosen occurrence of a probe) and chaos rules (fire recurringly,
   each probe drawing against a per-rule probability from its own
   splitmix stream, so a chaos schedule is a pure function of the spec
   and the seed). *)

type point =
  | Solver_deadline
  | Worker_crash
  | Machine_step_limit
  | Io_error

let point_to_string = function
  | Solver_deadline -> "solver_deadline"
  | Worker_crash -> "worker_crash"
  | Machine_step_limit -> "machine_step_limit"
  | Io_error -> "io_error"

let point_of_string = function
  | "solver_deadline" -> Some Solver_deadline
  | "worker_crash" -> Some Worker_crash
  | "machine_step_limit" -> Some Machine_step_limit
  | "io_error" -> Some Io_error
  | _ -> None

let points_help = "(solver_deadline|worker_crash|machine_step_limit|io_error)"

type rule = {
  r_point : point;
  r_key : int option; (* None matches any probe key *)
  r_nth : int; (* fire on this occurrence (1-based) *)
  mutable r_seen : int; (* occurrences counted so far *)
  mutable r_fired : bool; (* armed rules fire exactly once *)
}

type chaos_rule = {
  c_point : point;
  c_bp : int; (* firing probability in basis points, 1..10000 *)
  c_rng : Prng.t; (* private stream: one draw per probe of the point *)
}

type t =
  | Off
  | On of {
      rules : rule list;
      chaos : chaos_rule list;
      lock : Mutex.t; (* probes may come from several domains *)
    }

let off = Off

let is_on = function
  | Off -> false
  | On _ -> true

let make rules =
  let rules =
    List.map
      (fun (p, key, nth) ->
        if nth < 1 then invalid_arg "Faultsim.make: occurrence must be >= 1";
        { r_point = p; r_key = key; r_nth = nth; r_seen = 0; r_fired = false })
      rules
  in
  On { rules; chaos = []; lock = Mutex.create () }

let chaos ?(seed = 0) rates =
  (* Each rule gets its own stream, seeded from a master stream over
     [seed], so adding a rule never perturbs the draws of the others. *)
  let master = Prng.create seed in
  let chaos =
    List.map
      (fun (p, bp) ->
        if bp < 1 || bp > 10000 then
          invalid_arg "Faultsim.chaos: rate must be in 1..10000 basis points";
        { c_point = p; c_bp = bp; c_rng = Prng.create (Prng.int_below master max_int) })
      rates
  in
  On { rules = []; chaos; lock = Mutex.create () }

let arms t point =
  match t with
  | Off -> false
  | On { rules; chaos; _ } ->
    List.exists (fun r -> r.r_point = point) rules
    || List.exists (fun c -> c.c_point = point) chaos

let fire ?key t point =
  match t with
  | Off -> false
  | On { rules; chaos; lock } ->
    Mutex.lock lock;
    (* Every matching rule counts the occurrence (no short-circuit), so
       several rules on one point each see the full probe stream. *)
    let hit =
      List.fold_left
        (fun hit r ->
          if
            r.r_point = point
            && (match (r.r_key, key) with
                | None, _ -> true
                | Some k, Some k' -> k = k'
                | Some _, None -> false)
          then begin
            r.r_seen <- r.r_seen + 1;
            if (not r.r_fired) && r.r_seen = r.r_nth then begin
              r.r_fired <- true;
              true
            end
            else hit
          end
          else hit)
        false rules
    in
    (* Chaos rules ignore the probe key: every probe of the point is one
       Bernoulli draw from the rule's private stream. *)
    let hit =
      List.fold_left
        (fun hit c ->
          if c.c_point = point then
            Prng.int_range c.c_rng 1 10000 <= c.c_bp || hit
          else hit)
        hit chaos
    in
    Mutex.unlock lock;
    hit

(* ---- spec parsing ----------------------------------------------------------- *)

(* [:?] occurrences come from a splitmix64 stream over the seed, so a
   spec + seed pair names one deterministic injection schedule. *)
let of_spec ?(seed = 0) spec =
  let rng = Prng.create seed in
  let parse_entry entry =
    let entry = String.trim entry in
    let name, rest =
      match String.index_opt entry '@' with
      | Some i ->
        (String.sub entry 0 i, `Keyed (String.sub entry (i + 1) (String.length entry - i - 1)))
      | None ->
        (match String.index_opt entry ':' with
         | Some i ->
           (String.sub entry 0 i, `Nth (String.sub entry (i + 1) (String.length entry - i - 1)))
         | None -> (entry, `Plain))
    in
    let parse_nth s =
      if s = "?" then Ok (Prng.int_range rng 1 8)
      else
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (Printf.sprintf "bad occurrence %S (positive integer or ?)" s)
    in
    match point_of_string name with
    | None ->
      Error (Printf.sprintf "unknown injection point %S %s" name points_help)
    | Some p ->
      (match rest with
       | `Plain -> Ok (p, None, 1)
       | `Nth s -> Result.map (fun n -> (p, None, n)) (parse_nth s)
       | `Keyed s ->
         let key_s, nth_s =
           match String.index_opt s ':' with
           | Some i ->
             (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
           | None -> (s, None)
         in
         (match int_of_string_opt key_s with
          | None -> Error (Printf.sprintf "bad probe key %S (integer)" key_s)
          | Some k ->
            (match nth_s with
             | None -> Ok (p, Some k, 1)
             | Some s -> Result.map (fun n -> (p, Some k, n)) (parse_nth s))))
  in
  if String.trim spec = "" then Error "empty faultsim spec"
  else begin
    let entries = String.split_on_char ',' spec in
    let rec go acc = function
      | [] -> Ok (make (List.rev acc))
      | e :: rest ->
        (match parse_entry e with
         | Ok r -> go (r :: acc) rest
         | Error _ as e -> e)
    in
    go [] entries
  end

let chaos_of_spec ?(seed = 0) spec =
  let parse_entry entry =
    let entry = String.trim entry in
    match String.index_opt entry '=' with
    | None ->
      Error
        (Printf.sprintf "bad chaos entry %S (expected point=RATE, e.g. worker_crash=0.05)"
           entry)
    | Some i ->
      let name = String.sub entry 0 i in
      let rate_s = String.sub entry (i + 1) (String.length entry - i - 1) in
      (match point_of_string name with
       | None -> Error (Printf.sprintf "unknown injection point %S %s" name points_help)
       | Some p ->
         (match float_of_string_opt rate_s with
          | Some rate when rate > 0. && rate <= 1. ->
            let bp = int_of_float (Float.round (rate *. 10000.)) in
            if bp < 1 then
              Error (Printf.sprintf "chaos rate %s is below 0.0001 (one basis point)" rate_s)
            else Ok (p, bp)
          | Some _ -> Error (Printf.sprintf "chaos rate %s out of range (0, 1]" rate_s)
          | None -> Error (Printf.sprintf "bad chaos rate %S (decimal probability)" rate_s)))
  in
  if String.trim spec = "" then Error "empty chaos spec"
  else begin
    let entries = String.split_on_char ',' spec in
    let rec go acc = function
      | [] -> Ok (chaos ~seed (List.rev acc))
      | e :: rest ->
        (match parse_entry e with
         | Ok r -> go (r :: acc) rest
         | Error _ as e -> e)
    in
    go [] entries
  end

exception Injected of string

let inject_crash point =
  raise (Injected (Printf.sprintf "faultsim: injected %s" (point_to_string point)))

(* Deterministic fault injection. See faultsim.mli for the contract;
   the implementation is a tiny rule list behind a mutex. The disabled
   plan is the [Off] constructor, so the production probe
   ([fire _ Off = false]) is one branch and no allocation. *)

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

type schedule =
  | Nth of int
  | Rate of int

(* A rule's firing state: a probe counter that matches [nth] once, or
   a private splitmix stream with one draw per matching probe. *)
type armed =
  | Once of { nth : int; mutable seen : int }
  | Every of { bp : int; rng : Prng.t }

type rule = {
  point : point;
  key : int option; (* None matches any probe key *)
  armed : armed;
}

type t =
  | Off
  | On of {
      rules : rule list;
      lock : Mutex.t; (* probes may come from several domains *)
    }

let off = Off

let is_on = function
  | Off -> false
  | On _ -> true

(* The one range check. A [Rate] rule takes its stream's seed from
   [seeds], so rules armed in order from one stream never share draws. *)
let arm seeds (point, key, schedule) =
  match schedule with
  | Nth n when n < 1 -> Error (Printf.sprintf "occurrence %d must be >= 1" n)
  | Nth nth -> Ok { point; key; armed = Once { nth; seen = 0 } }
  | Rate bp when bp < 1 || bp > 10000 ->
    Error (Printf.sprintf "rate of %d basis points is outside 1..10000 (0.0001..1)" bp)
  | Rate bp ->
    Ok { point; key; armed = Every { bp; rng = Prng.create (Prng.int_below seeds max_int) } }

let plan rules = On { rules; lock = Mutex.create () }

let make ?(seed = 0) rules =
  let seeds = Prng.create seed in
  plan
    (List.map
       (fun r ->
         match arm seeds r with
         | Ok r -> r
         | Error msg -> invalid_arg ("Faultsim.make: " ^ msg))
       rules)

let arms t point =
  match t with
  | Off -> false
  | On { rules; _ } -> List.exists (fun r -> r.point = point) rules

let fire ?key t point =
  match t with
  | Off -> false
  | On { rules; lock } ->
    Mutex.lock lock;
    (* Every matching rule sees the occurrence (no short-circuit), so
       several rules on one point each see the full probe stream. *)
    let hit =
      List.fold_left
        (fun hit r ->
          if
            r.point = point
            && (match (r.key, key) with
                | None, _ -> true
                | Some k, Some k' -> k = k'
                | Some _, None -> false)
          then
            match r.armed with
            | Once o ->
              o.seen <- o.seen + 1;
              o.seen = o.nth || hit
            | Every e -> Prng.int_range e.rng 1 10000 <= e.bp || hit
          else hit)
        false rules
    in
    Mutex.unlock lock;
    hit

(* ---- spec parsing ----------------------------------------------------------- *)

(* [cut c s] splits [s] at the first [c]. *)
let cut c s =
  match String.index_opt s c with
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> (s, None)

let ( let* ) = Result.bind

(* One stream over the seed serves, in entry order, both the [:?]
   draws and the rate streams' seeds, so a spec + seed pair names one
   deterministic injection schedule. *)
let of_spec ?(seed = 0) spec =
  let seeds = Prng.create seed in
  let parse_entry entry =
    let head, rate = cut '=' (String.trim entry) in
    let head, nth = if rate = None then cut ':' head else (head, None) in
    let name, key = cut '@' head in
    let* point =
      Option.to_result (point_of_string name)
        ~none:(Printf.sprintf "unknown injection point %S %s" name points_help)
    in
    let* key =
      match key with
      | None -> Ok None
      | Some s ->
        Option.to_result
          (Option.map Option.some (int_of_string_opt s))
          ~none:(Printf.sprintf "bad probe key %S (integer)" s)
    in
    let* schedule =
      match (rate, nth) with
      | Some s, _ ->
        (match float_of_string_opt s with
         | Some r when r >= 0. && r <= 1. ->
           Ok (Rate (int_of_float (Float.round (r *. 10000.))))
         | _ -> Error (Printf.sprintf "bad rate %S (a probability in (0, 1])" s))
      | None, None -> Ok (Nth 1)
      | None, Some "?" -> Ok (Nth (Prng.int_range seeds 1 8))
      | None, Some s ->
        Option.to_result
          (Option.map (fun n -> Nth n) (int_of_string_opt s))
          ~none:(Printf.sprintf "bad occurrence %S (positive integer or ?)" s)
    in
    arm seeds (point, key, schedule)
  in
  if String.trim spec = "" then Error "empty faultsim spec"
  else
    let rec go acc = function
      | [] -> Ok (plan (List.rev acc))
      | e :: rest ->
        let* r = parse_entry e in
        go (r :: acc) rest
    in
    go [] (String.split_on_char ',' spec)

exception Injected of string

let inject_crash point =
  raise (Injected (Printf.sprintf "faultsim: injected %s" (point_to_string point)))

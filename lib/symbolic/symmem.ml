type t = { tbl : (int, Linexpr.t) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let copy t = { tbl = Hashtbl.copy t.tbl }

let erase t ~addr = Hashtbl.remove t.tbl addr

let bind t ~addr e =
  match Linexpr.is_const e with
  | Some _ -> erase t ~addr
  | None -> Hashtbl.replace t.tbl addr e

let lookup t ~addr = Hashtbl.find_opt t.tbl addr

let symbolic_count t = Hashtbl.length t.tbl

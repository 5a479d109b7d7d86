open Pld_fabric
module N = Pld_netlist.Netlist

type t = { target : Floorplan.rect; frames : bytes; crc : string }

let frames_per_tile = 96

let generate ~region ~placement ~routes (nl : N.t) =
  let w = region.Floorplan.x1 - region.Floorplan.x0 + 1 in
  let h = region.Floorplan.y1 - region.Floorplan.y0 + 1 in
  let size = w * h * frames_per_tile in
  let frames = Bytes.make size '\000' in
  (* Stamp each tile's frame block with a deterministic function of the
     cells placed there, so two different placements yield different
     bitstreams and identical designs yield identical ones. *)
  Array.iteri
    (fun cid (x, y) ->
      let tile = ((y - region.Floorplan.y0) * w) + (x - region.Floorplan.x0) in
      let base = tile * frames_per_tile in
      let cell = nl.N.cells.(cid) in
      let h = Hashtbl.hash (cell.N.cname, cell.N.kind, cid) in
      for k = 0 to 7 do
        let off = base + (h + k) mod frames_per_tile in
        Bytes.set frames off (Char.chr ((Char.code (Bytes.get frames off) + h + k) land 0xFF))
      done)
    placement;
  List.iteri
    (fun i (r : Route.route) ->
      List.iter
        (fun ei ->
          let off = (i + ei) mod size in
          Bytes.set frames off (Char.chr ((Char.code (Bytes.get frames off) + 1) land 0xFF)))
        r.Route.edges)
    routes;
  let crc = Pld_util.Digest_lite.of_string (Bytes.to_string frames) in
  { target = region; frames; crc }

let size_bytes t = Bytes.length t.frames

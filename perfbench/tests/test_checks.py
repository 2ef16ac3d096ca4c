"""Each output check catches one planted fault and passes a clean run."""

from perfbench import fabric, orfa_openloop, orfs_read
from repro.kernel.memfs import MemFs
from repro.load import LoadGen, PoissonArrivals


def test_orfs_clean_run_passes(small):
    res = orfs_read.one_pass(3)
    assert res.bad == 0
    assert res.checked == len(res.sim["lat_ns"]) > 0


def test_orfs_check_catches_one_corrupted_byte(small, monkeypatch):
    build = orfs_read.build

    def corrupted(data):
        bad = bytearray(data)
        bad[len(bad) // 2] ^= 0x01
        return build(bytes(bad))

    monkeypatch.setattr(orfs_read, "build", corrupted)
    assert orfs_read.one_pass(3).bad == 1


def test_orfa_clean_point_passes():
    point = orfa_openloop.run_point(5, 30_000, 80)
    assert point.bad == 0
    assert point.checked == 80
    assert len(point.timed) == 80


def test_orfa_check_catches_one_lost_write(monkeypatch):
    write_raw = MemFs.write_raw
    lost = []

    def lossy(fs, inode_id, offset, data):
        if len(data) == 4096 and not lost:
            lost.append(offset)
            return len(data)
        return write_raw(fs, inode_id, offset, data)

    monkeypatch.setattr(MemFs, "write_raw", lossy)
    point = orfa_openloop.run_point(5, 30_000, 80)
    assert lost
    assert point.bad >= 1


def test_orfa_check_catches_one_corrupted_byte(monkeypatch):
    # Corrupt the first block of a client whose first data op is a read.
    schedule = LoadGen(PoissonArrivals(5, 30_000), orfa_openloop.MIX, 5, 80,
                       orfa_openloop.N_CLIENTS).schedule()
    first = {}
    for item in schedule:
        if item.op != "stat":
            first.setdefault(item.client, item.op)
    client = min(c for c, op in first.items() if op == "read")
    seed_files = orfa_openloop.Checks.seed_files

    def corrupt_after_seeding(checks, server):
        seed_files(checks, server)
        inode = checks.inodes[f"load{client}"]
        byte = server.fs.read_raw(inode, 10, 1)[0]
        server.fs.write_raw(inode, 10, bytes([byte ^ 0xFF]))

    monkeypatch.setattr(orfa_openloop.Checks, "seed_files",
                        corrupt_after_seeding)
    assert orfa_openloop.run_point(5, 30_000, 80).bad == 1


def test_fabric_clean_run_delivers_everything(small):
    res = fabric.one_pass(0)
    assert (res.checked, res.bad) == (16, 0)


def test_fabric_check_catches_one_undelivered_transfer(small, monkeypatch):
    write_stamps = fabric.write_stamps

    def silence_one_sender(rig, marks):
        write_stamps(rig, marks)
        rig.senders[5].send = lambda size, match=0: iter(())

    monkeypatch.setattr(fabric, "write_stamps", silence_one_sender)
    res = fabric.one_pass(0)
    assert res.bad == 1
    assert res.sim["done_ns"][5] is None

import numpy as np
import pytest

from mvdet import featcore
from mvdet.camgeo import CameraExtrinsics, CameraIntrinsics, CameraModel, CameraRig
from mvdet.synth import gen_rig


@pytest.fixture(scope="session")
def ident_cam():
    """Camera whose frame coincides with the ego frame (R=I, t=0)."""
    return CameraModel(
        intrinsics=CameraIntrinsics(fx=1000.0, fy=1000.0, cx=800.0, cy=450.0, width=1600, height=900),
        extrinsics=CameraExtrinsics(rotation=np.eye(3), translation=np.zeros(3)),
        id="ident",
    )


@pytest.fixture(scope="session")
def rig6():
    return gen_rig("nuscenes-like")


@pytest.fixture(scope="session")
def rig1():
    return gen_rig("single")


@pytest.fixture()
def ident_rig(ident_cam):
    return CameraRig(cameras=(ident_cam,))


@pytest.fixture()
def split_runs(monkeypatch):
    """``split_runs(fn)`` calls ``fn`` with featcore's row split forced off,
    then forced onto two threads at every size, and returns (first result,
    second result, threads the second call started)."""

    def run(fn):
        monkeypatch.setattr(featcore, "_SPLIT_MIN_SIZE", 0)
        monkeypatch.setattr(featcore, "_SPLIT_MIN_WIDTH", 0)
        monkeypatch.setattr(featcore, "_WORKERS", 1)
        one = fn()
        started = []

        class Counted(featcore.threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        with monkeypatch.context() as m:
            m.setattr(featcore, "_WORKERS", 2)
            m.setattr(featcore.threading, "Thread", Counted)
            two = fn()
        return one, two, len(started)

    return run

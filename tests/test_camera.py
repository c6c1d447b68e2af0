"""Tests for the orthographic camera."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.render.camera import Camera, rotation_matrix
from repro.types import Rect


def make_camera(**kwargs):
    defaults = dict(width=64, height=48, volume_shape=(32, 32, 16))
    defaults.update(kwargs)
    return Camera(**defaults)


class TestRotationMatrix:
    def test_identity(self):
        assert np.allclose(rotation_matrix(0, 0, 0), np.eye(3))

    def test_orthonormal(self):
        rot = rotation_matrix(33, -70, 12)
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_x_rotation_90(self):
        rot = rotation_matrix(90, 0, 0)
        assert np.allclose(rot @ [0, 1, 0], [0, 0, 1], atol=1e-12)

    def test_composition_order(self):
        rot = rotation_matrix(90, 90, 0)
        expected = rotation_matrix(0, 90, 0) @ rotation_matrix(90, 0, 0)
        assert np.allclose(rot, expected)


class TestCameraValidation:
    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            make_camera(width=0)

    def test_bad_step(self):
        with pytest.raises(ConfigurationError):
            make_camera(step=0.0)

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            make_camera(scale=-1.0)

    def test_bad_volume_shape(self):
        with pytest.raises(ConfigurationError):
            Camera(width=4, height=4, volume_shape=(0, 4, 4))


class TestBasis:
    def test_default_view_down_negative_z(self):
        right, up, view = make_camera().basis()
        assert np.allclose(right, [1, 0, 0])
        assert np.allclose(up, [0, 1, 0])
        assert np.allclose(view, [0, 0, -1])

    def test_basis_orthonormal_after_rotation(self):
        right, up, view = make_camera(rot_x=30, rot_y=45, rot_z=10).basis()
        for v in (right, up, view):
            assert np.linalg.norm(v) == pytest.approx(1.0)
        assert abs(right @ up) < 1e-12
        assert abs(right @ view) < 1e-12

    def test_rotated_copy(self):
        cam = make_camera(rot_x=10)
        cam2 = cam.rotated(rot_y=20)
        assert cam2.rot_x == 10 and cam2.rot_y == 20
        assert cam.rot_y == 0.0


class TestDerivedGeometryCache:
    def test_computed_once_and_bit_identical(self, monkeypatch):
        import repro.render.camera as camera_module

        calls = []
        real = camera_module.rotation_matrix
        monkeypatch.setattr(
            camera_module, "rotation_matrix", lambda *a: (calls.append(a), real(*a))[1]
        )
        cam = make_camera(rot_x=33.0, rot_y=-70.0, rot_z=12.0, step=0.7)
        rot = real(33.0, -70.0, 12.0)
        for _ in range(3):
            right, up, view_dir = cam.basis()
            assert np.array_equal(right, rot @ np.array([1.0, 0.0, 0.0]))
            assert np.array_equal(up, rot @ np.array([0.0, 1.0, 0.0]))
            assert np.array_equal(view_dir, rot @ np.array([0.0, 0.0, -1.0]))
            assert cam.view_dir is view_dir
            assert np.array_equal(cam.center, [16.0, 16.0, 8.0])
            assert cam.t_half == float(np.linalg.norm((32, 32, 16))) / 2.0 + 0.7
            assert cam.pixel_scale == float(np.linalg.norm((32, 32, 16))) * 1.04 / 48
        assert len(calls) == 1

    def test_shared_arrays_are_read_only(self):
        cam = make_camera(rot_y=20.0)
        for array in (*cam.basis(), cam.view_dir, cam.center):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_copies_start_from_a_fresh_cache(self):
        from dataclasses import replace

        cam = make_camera(rot_y=20.0)
        before = cam.view_dir.copy()
        turned = cam.rotated(rot_y=80.0)
        assert not np.allclose(turned.view_dir, before)
        assert np.array_equal(turned.view_dir, make_camera(rot_y=80.0).view_dir)
        finer = replace(cam, step=0.5, scale=2.0)
        assert finer.t_half == cam.diagonal / 2.0 + 0.5 and finer.pixel_scale == 2.0
        assert np.array_equal(cam.view_dir, before)
        # The cache is not part of the value: equality and hash see fields only.
        assert cam == make_camera(rot_y=20.0) and hash(cam) == hash(make_camera(rot_y=20.0))


class TestSampling:
    def test_t_grid_covers_volume(self):
        cam = make_camera()
        ts = cam.sample_ts()
        assert ts.shape == (cam.num_steps,)
        assert ts[0] >= -cam.t_half
        assert ts[-1] <= cam.t_half
        # Sample spacing equals the step everywhere.
        assert np.allclose(np.diff(ts), cam.step)

    def test_smaller_step_more_samples(self):
        coarse = make_camera(step=2.0)
        fine = make_camera(step=0.5)
        assert fine.num_steps > coarse.num_steps

    def test_default_scale_fits_volume(self):
        cam = make_camera()
        span = cam.pixel_scale * min(cam.width, cam.height)
        assert span >= cam.diagonal  # bounding sphere fits


class TestProjection:
    def test_project_pixel_origins_roundtrip(self):
        cam = make_camera(rot_x=25, rot_y=-40, rot_z=5)
        rect = Rect(3, 7, 13, 19)
        origins = cam.pixel_origins(rect)
        projected = cam.project_points(origins.reshape(-1, 3)).reshape(
            rect.height, rect.width, 2
        )
        rows_expect = np.arange(rect.y0, rect.y1, dtype=float)
        cols_expect = np.arange(rect.x0, rect.x1, dtype=float)
        assert np.allclose(projected[..., 0], rows_expect[:, None], atol=1e-9)
        assert np.allclose(projected[..., 1], cols_expect[None, :], atol=1e-9)

    def test_center_projects_to_image_center(self):
        cam = make_camera(rot_x=33, rot_y=70)
        rc = cam.project_points(cam.center[None, :])[0]
        assert rc[0] == pytest.approx(cam.height / 2 - 0.5)
        assert rc[1] == pytest.approx(cam.width / 2 - 0.5)

    def test_footprint_contains_projected_points(self):
        cam = make_camera(rot_x=20, rot_y=30)
        corners = np.array(
            [[0, 0, 0], [32, 0, 0], [0, 32, 0], [0, 0, 16], [32, 32, 16]], dtype=float
        )
        rect = cam.footprint_rect(corners)
        rc = cam.project_points(corners)
        for row, col in rc:
            assert rect.y0 <= row <= rect.y1
            assert rect.x0 <= col <= rect.x1

    def test_footprint_clipped_to_image(self):
        cam = make_camera()
        huge = np.array([[-1000, -1000, -1000], [1000, 1000, 1000]], dtype=float)
        rect = cam.footprint_rect(huge)
        assert Rect.full(cam.height, cam.width).contains(rect)

    def test_view_dir_unit(self):
        cam = make_camera(rot_x=12, rot_y=34, rot_z=56)
        assert np.linalg.norm(cam.view_dir) == pytest.approx(1.0)
